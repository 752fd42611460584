package core

// Exact breakpoint-driven market clearing.
//
// The scan engine (clearScan) evaluates the aggregate demand at every grid
// price — O(prices × bids) work, thousands of full-demand evaluations at
// the paper's 15,000-rack / 0.1 cent step operating point (Fig. 7(b)). But
// the bid family is piece-wise linear in price (LinearBid, StepBid,
// FullBid), so the served aggregate demand T(q) — each rack clamped to its
// headroom — is itself piece-wise linear, with breakpoints only where some
// bid's curve changes slope or crosses its rack headroom. On each
// inter-breakpoint segment the operator revenue q·T(q)/1000 is a closed-form
// quadratic whose maximum lies at a segment endpoint or at its interior
// vertex. clearExact therefore:
//
//  1. decomposes every bid's served demand into affine pieces (constant-time
//     fast paths for LinearBid and StepBid, one generic path for any other
//     Breakpointer) and merges the piece boundaries into one sorted,
//     deduplicated breakpoint grid — a float sort plus a counting sort of
//     the piece start/stop events, O(B log B);
//  2. sweeps the grid once, maintaining per-PDU affine load coefficients
//     (L_m(q) = A[m] + B[m]·q on the current segment). Loads are
//     non-increasing in price, so the set of over-capacity PDUs only ever
//     shrinks; the sweep keeps that set in a compact list and resolves each
//     PDU's crossing — an affine root — against its spot limit, which
//     yields (a) the exact lowest feasible price q* for strict (non-ration)
//     clearing and (b) for ration mode, the exact piece-wise linear form of
//     the rationed total Σ_m min(L_m(q), P_m) capped at the UPS;
//  3. maximizes the per-segment quadratics analytically, collects the
//     leading candidate prices, and re-evaluates them against the real
//     demand curves in parallel (per-worker scratch buffers; the shared
//     Market scratch stays single-threaded) before picking the winner in
//     ascending price order (deterministic low-price tie-break).
//
// The scan remains available as Options.Algorithm = AlgorithmScan and
// serves as the cross-validation oracle: exact clearing must earn at least
// the scan's revenue on the same bids (see clear_exact_test.go).

import (
	"math"
	"runtime"
	"sort"
	"sync"
)

// exactVerifyCandidates caps how many analytically ranked candidate prices
// are re-evaluated against the real demand curves before the winner is
// chosen. The analytic pieces are exact for the built-in bid family, so the
// verification pass is a safety net (and the source of the measured watts),
// not a search: a small constant suffices.
const exactVerifyCandidates = 8

// linPiece is one affine piece of a served-demand curve: value a + b·q for
// prices in the half-open interval (lo, hi]. Demand curves are
// left-continuous in price — a bid's demand holds through its maximum price
// and jumps down just above it — so the right endpoint belongs to the
// piece.
type linPiece struct {
	lo, hi float64
	a, b   float64
}

// eval evaluates the piece's affine value.
func (p linPiece) eval(q float64) float64 { return p.a + p.b*q }

// sweepEvent activates (positive dA/dB) or retires (negative) one bid
// piece's contribution to its PDU. Events are bucketed by breakpoint-grid
// index, so they carry no price of their own.
type sweepEvent struct {
	pdu    int
	dA, dB float64
}

// pieceBuilder decomposes bids into the affine pieces of their served
// demand min(D_b(q), headroom) over [floor, ∞).
type pieceBuilder struct {
	m      *Market
	floor  float64
	pieces []linPiece
	pdus   []int
	knots  []float64 // scratch for the generic Breakpointer path
}

// addBid appends the pieces of one bid. The bid's demand function must
// implement Breakpointer (callers check via breakpointable).
func (pb *pieceBuilder) addBid(b Bid) {
	hr := pb.m.cons.RackHeadroom[b.Rack]
	if hr <= 0 {
		return
	}
	pdu := pb.m.cons.RackPDU[b.Rack]
	switch fn := b.Fn.(type) {
	case LinearBid:
		pb.addLinear(pdu, hr, fn.DMax, fn.DMin, fn.QMin, fn.QMax)
	case StepBid:
		pb.addConst(pdu, hr, fn.D, fn.QMax)
	default:
		pb.addGeneric(pdu, hr, b)
	}
}

// addConst handles a step bid: demand d through qMax, zero above.
func (pb *pieceBuilder) addConst(pdu int, hr, d, qMax float64) {
	if qMax <= pb.floor || d <= 0 {
		return
	}
	if d > hr {
		d = hr
	}
	pb.pieces = append(pb.pieces, linPiece{lo: pb.floor, hi: qMax, a: d})
	pb.pdus = append(pb.pdus, pdu)
}

// addLinear handles the four-parameter LinearBid without touching the
// interface (no Breakpoints allocation, no Demand sampling).
func (pb *pieceBuilder) addLinear(pdu int, hr, dMax, dMin, qMin, qMax float64) {
	if qMax <= pb.floor || dMax <= 0 {
		return
	}
	if qMin >= qMax {
		// Degenerate step: demand dMax through qMax.
		pb.addConst(pdu, hr, dMax, qMax)
		return
	}
	beta := (dMin - dMax) / (qMax - qMin)
	alpha := dMax - beta*qMin
	if qMin > pb.floor {
		pb.addAffine(pdu, hr, pb.floor, qMin, dMax, 0)
		pb.addAffine(pdu, hr, qMin, qMax, alpha, beta)
	} else {
		pb.addAffine(pdu, hr, pb.floor, qMax, alpha, beta)
	}
}

// addGeneric samples any Breakpointer (FullBid, external implementations)
// between its knots: demand is affine between consecutive breakpoints, so a
// midpoint and right-end sample pin down the segment exactly.
func (pb *pieceBuilder) addGeneric(pdu int, hr float64, b Bid) {
	bp := b.Fn.(Breakpointer).Breakpoints()
	knots := pb.knots[:0]
	knots = append(knots, pb.floor)
	for _, p := range bp {
		if p > knots[len(knots)-1] {
			knots = append(knots, p)
		}
	}
	for i := 0; i+1 < len(knots); i++ {
		lo, hi := knots[i], knots[i+1]
		mid := lo + (hi-lo)/2
		dm := b.Fn.Demand(mid)
		dr := b.Fn.Demand(hi)
		beta := 0.0
		if hi > mid {
			beta = (dr - dm) / (hi - mid)
		}
		if beta > 0 {
			// Defensive: demand must be non-increasing; collapse sampling
			// noise to a constant piece.
			beta, dr = 0, (dm+dr)/2
		}
		alpha := dr - beta*hi
		pb.addAffine(pdu, hr, lo, hi, alpha, beta)
	}
	pb.knots = knots
}

// addAffine clamps one affine demand segment alpha + beta·q (beta ≤ 0, so
// the value is non-increasing) on (lo, hi] against the rack headroom and
// appends the surviving pieces.
func (pb *pieceBuilder) addAffine(pdu int, hr, lo, hi, alpha, beta float64) {
	if hi <= lo {
		return
	}
	vLo, vHi := alpha+beta*lo, alpha+beta*hi
	switch {
	case vLo <= 0 && vHi <= 0:
		return // nothing served on this piece
	case vHi >= hr:
		// Non-increasing and still above headroom at the right end: fully
		// clamped.
		pb.pieces = append(pb.pieces, linPiece{lo: lo, hi: hi, a: hr})
		pb.pdus = append(pb.pdus, pdu)
	case vLo <= hr:
		pb.pieces = append(pb.pieces, linPiece{lo: lo, hi: hi, a: alpha, b: beta})
		pb.pdus = append(pb.pdus, pdu)
	default:
		// Crosses the headroom inside the piece (beta < 0 strictly).
		qc := (hr - alpha) / beta
		if qc <= lo {
			qc = lo
		}
		if qc >= hi {
			qc = hi
		}
		if qc > lo {
			pb.pieces = append(pb.pieces, linPiece{lo: lo, hi: qc, a: hr})
			pb.pdus = append(pb.pdus, pdu)
		}
		if hi > qc {
			pb.pieces = append(pb.pieces, linPiece{lo: qc, hi: hi, a: alpha, b: beta})
			pb.pdus = append(pb.pdus, pdu)
		}
	}
}

// priceCandidate pairs a candidate clearing price with its analytic
// revenue, used to rank candidates before measured verification.
type priceCandidate struct {
	price float64
	rev   float64
}

// exactScratch holds clearExact's reusable working memory, so steady-state
// clearing (one call per market slot, or a benchmark loop) allocates almost
// nothing. It shares the Market's single-threaded contract; the parallel
// candidate verification hands each worker a private buffer out of
// verifyBufs.
type exactScratch struct {
	// piece decomposition + breakpoint grid (stage 1).
	pieces  []linPiece
	pdus    []int
	knots   []float64
	bounds  []float64
	loIdx   []int32
	hiIdx   []int32
	evStart []int
	fill    []int
	evs     []sweepEvent
	// sweep working state (stage 2).
	sweepA    []float64
	sweepB    []float64
	over      []bool
	pos       []int
	overList  []int
	touched   []int
	rawPieces []linPiece
	ratPieces []linPiece
	// candidate selection + verification (stages 3–4). top is a fixed-size
	// array backing the bounded top-k selection (the +1 slot holds the
	// range-start fallback).
	cands      []priceCandidate
	top        [exactVerifyCandidates + 1]priceCandidate
	prices     []float64
	watts      []float64
	ok         []bool
	verifyBufs [][]float64
}

// i32s returns dst resized to n (reallocating only on growth).
func i32s(dst []int32, n int) []int32 {
	if cap(dst) < n {
		return make([]int32, n)
	}
	return dst[:n]
}

// ints returns dst resized to n (reallocating only on growth).
func ints(dst []int, n int) []int {
	if cap(dst) < n {
		return make([]int, n)
	}
	return dst[:n]
}

// f64s returns dst resized to n (reallocating only on growth).
func f64s(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// bools returns dst resized to n (reallocating only on growth).
func bools(dst []bool, n int) []bool {
	if cap(dst) < n {
		return make([]bool, n)
	}
	return dst[:n]
}

// clearExact runs the breakpoint-driven engine. Callers guarantee every
// bid implements Breakpointer (see Clear).
func (m *Market) clearExact(bids []Bid) Result {
	floor := m.priceFloor()
	res := Result{Price: floor, Algorithm: AlgorithmExact}
	if len(bids) == 0 {
		return res
	}
	hi := m.maxBidPrice(bids)

	// 1. Decompose bids into affine pieces.
	sc := &m.exact
	pb := pieceBuilder{
		m:      m,
		floor:  floor,
		pieces: sc.pieces[:0],
		pdus:   sc.pdus[:0],
		knots:  sc.knots,
	}
	for _, b := range bids {
		pb.addBid(b)
	}
	pieces, piecePDU := pb.pieces, pb.pdus
	sc.pieces, sc.pdus, sc.knots = pieces, piecePDU, pb.knots

	// Breakpoint grid: the sorted, deduplicated piece boundaries (a plain
	// float sort — far cheaper than sorting tagged event structs). Piece
	// lows equal to the floor always map to grid[0], and a piece sharing
	// its low with the previous piece's high (adjacent pieces of the same
	// bid) contributes nothing new; both are left out.
	bounds := append(sc.bounds[:0], floor)
	for i, p := range pieces {
		if p.lo > floor && (i == 0 || pieces[i-1].hi != p.lo) {
			bounds = append(bounds, p.lo)
		}
		bounds = append(bounds, p.hi)
	}
	sort.Float64s(bounds)
	sc.bounds = bounds
	grid := bounds[:1]
	for _, q := range bounds[1:] {
		if q > grid[len(grid)-1] {
			grid = append(grid, q)
		}
	}

	// Bucket the piece start/stop events by grid index (counting sort):
	// events at grid[gi] occupy evs[evStart[gi]:evStart[gi+1]].
	evStart := ints(sc.evStart, len(grid)+1)
	for i := range evStart {
		evStart[i] = 0
	}
	loIdx := i32s(sc.loIdx, len(pieces))
	hiIdx := i32s(sc.hiIdx, len(pieces))
	for i, p := range pieces {
		li := 0
		switch {
		case p.lo <= floor:
			// li = 0: pieces never start below the floor.
		case i > 0 && pieces[i-1].hi == p.lo:
			li = int(hiIdx[i-1]) // adjacent pieces of the same bid
		default:
			li = sort.SearchFloat64s(grid, p.lo)
		}
		ri := sort.SearchFloat64s(grid, p.hi)
		loIdx[i], hiIdx[i] = int32(li), int32(ri)
		evStart[li+1]++
		evStart[ri+1]++
	}
	for i := 1; i <= len(grid); i++ {
		evStart[i] += evStart[i-1]
	}
	evs := sc.evs
	if cap(evs) < 2*len(pieces) {
		evs = make([]sweepEvent, 2*len(pieces))
	} else {
		evs = evs[:2*len(pieces)]
	}
	fill := append(ints(sc.fill, 0), evStart[:len(grid)]...)
	for i, p := range pieces {
		evs[fill[loIdx[i]]] = sweepEvent{pdu: piecePDU[i], dA: p.a, dB: p.b}
		fill[loIdx[i]]++
		evs[fill[hiIdx[i]]] = sweepEvent{pdu: piecePDU[i], dA: -p.a, dB: -p.b}
		fill[hiIdx[i]]++
	}
	sc.evStart, sc.loIdx, sc.hiIdx, sc.evs, sc.fill = evStart, loIdx, hiIdx, evs, fill

	// 2. Sweep: exact feasibility frontier + piece-wise linear totals.
	sw := m.sweep(evs, evStart, grid)

	// 3. Analytic per-segment maximization → ranked candidates.
	cands := sc.cands[:0]
	var start float64
	if m.opts.Ration {
		start = floor
		cands = collectCandidates(cands, sw.ratPieces, start, true)
	} else {
		start = sw.qStar
		attained := sw.qStarAttained
		if !attained {
			// The frontier is approached via a downward demand jump: any
			// price strictly above qStar is feasible.
			start = math.Nextafter(sw.qStar, math.Inf(1))
		}
		cands = collectCandidates(cands, sw.rawPieces, start, attained)
	}
	if len(cands) == 0 {
		cands = append(cands, priceCandidate{price: start})
	}
	sc.cands = cands

	// 4. Keep the analytically best candidates (the range start always
	// rides along as a safe fallback) and verify them against the real
	// demand curves in parallel. The candidate list is large (one or two
	// entries per affine piece — tens of thousands at 15,000 racks), but
	// only exactVerifyCandidates survive, so a bounded insertion pass by
	// (revenue desc, price asc) replaces a full sort: O(n·k) with k = 8,
	// no comparator closures, no allocation.
	top := sc.top[:0]
	for _, c := range cands {
		top = insertTopK(top, c, exactVerifyCandidates)
	}
	hasStart := false
	for _, c := range top {
		if c.price == start {
			hasStart = true
			break
		}
	}
	if !hasStart {
		top = append(top, priceCandidate{price: start}) // fits: cap is k+1
	}
	// Ascending price order (≤ k+1 entries: insertion sort) so the winner
	// loop tie-breaks deterministically toward the lower price.
	for i := 1; i < len(top); i++ {
		for j := i; j > 0 && top[j].price < top[j-1].price; j-- {
			top[j], top[j-1] = top[j-1], top[j]
		}
	}
	prices := f64s(sc.prices, len(top))
	sc.prices = prices
	for i, c := range top {
		prices[i] = c.price
	}
	watts, ok := m.verifyCandidates(bids, prices)

	// 5. Winner by measured revenue, ascending price (low-price
	// tie-break within revEps).
	bestPrice, bestRev, bestWatts := start, -1.0, 0.0
	for i, q := range prices {
		if !ok[i] {
			continue
		}
		rev := q * watts[i] / 1000
		if rev > bestRev+revEps {
			bestPrice, bestRev, bestWatts = q, rev, watts[i]
		}
	}
	if bestRev < 0 {
		// No candidate is feasible (only possible when even the frontier
		// price cannot be attained); nothing sells just above the highest
		// bid price.
		bestPrice, bestRev, bestWatts = hi+m.opts.step(), 0, 0
	}
	res.Price = bestPrice
	// Piece construction costs about two full demand passes; verification
	// and materialization are full evaluations each.
	res.Evaluations = 2 + len(prices) + 1
	return m.materialize(res, bids, bestWatts, bestRev)
}

// candBetter ranks candidates for verification: higher analytic revenue
// first, lower price on ties (the deterministic low-price preference).
func candBetter(a, b priceCandidate) bool {
	if a.rev != b.rev {
		return a.rev > b.rev
	}
	return a.price < b.price
}

// insertTopK maintains top (sorted best-first under candBetter, at most k
// entries) after considering c. The caller provides a slice with enough
// capacity, so no allocation ever happens.
func insertTopK(top []priceCandidate, c priceCandidate, k int) []priceCandidate {
	switch {
	case len(top) < k:
		top = append(top, c)
	case candBetter(c, top[len(top)-1]):
		top[len(top)-1] = c
	default:
		return top
	}
	for i := len(top) - 1; i > 0 && candBetter(top[i], top[i-1]); i-- {
		top[i], top[i-1] = top[i-1], top[i]
	}
	return top
}

// collectCandidates extracts the per-piece analytic revenue maximizers —
// the right endpoint of each piece plus any interior quadratic vertex — for
// prices at or above start, appending to out (a reused scratch slice).
func collectCandidates(out []priceCandidate, pieces []linPiece, start float64, startAttained bool) []priceCandidate {
	rev := func(p linPiece, q float64) float64 { return q * p.eval(q) / 1000 }
	for _, p := range pieces {
		if p.hi <= start {
			continue
		}
		effLo := p.lo
		if start > effLo {
			effLo = start
			// The range start belongs to this piece: it is a candidate
			// itself when attained (the left end of later pieces is covered
			// by the previous piece's right endpoint, which dominates it
			// because demand only jumps downward).
			if startAttained {
				out = append(out, priceCandidate{price: start, rev: rev(p, start)})
			}
		}
		out = append(out, priceCandidate{price: p.hi, rev: rev(p, p.hi)})
		if p.b < 0 {
			if qv := -p.a / (2 * p.b); qv > effLo && qv < p.hi {
				out = append(out, priceCandidate{price: qv, rev: rev(p, qv)})
			}
		}
	}
	return out
}

// verifyCandidates evaluates the served (or rationed) total at each price
// against the real demand curves, in parallel when more than one worker is
// available. Each worker owns a private per-PDU scratch buffer; the
// market's shared scratch is untouched, preserving the documented
// single-threaded contract for everything else.
func (m *Market) verifyCandidates(bids []Bid, prices []float64) (watts []float64, ok []bool) {
	sc := &m.exact
	watts = f64s(sc.watts, len(prices))
	ok = bools(sc.ok, len(prices))
	sc.watts, sc.ok = watts, ok
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		// Keep the parallel path exercised (and race-checked) even on
		// single-core hosts; two goroutines cost next to nothing.
		workers = 2
	}
	if workers > len(prices) {
		workers = len(prices)
	}
	// Per-worker private PDU-load buffers, grown once and reused across
	// Clear calls (the PDU count is fixed per Market).
	for len(sc.verifyBufs) < workers {
		sc.verifyBufs = append(sc.verifyBufs, make([]float64, len(m.cons.PDUSpot)))
	}
	evalOne := func(buf []float64, i int) {
		if m.opts.Ration {
			watts[i] = m.rationedInto(buf, bids, prices[i])
			ok[i] = true
			return
		}
		watts[i], ok[i] = m.feasibleInto(buf, bids, prices[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := sc.verifyBufs[w]
			for i := w; i < len(prices); i += workers {
				evalOne(buf, i)
			}
		}(w)
	}
	wg.Wait()
	return watts, ok
}

// sweepState is what one breakpoint sweep produces.
type sweepState struct {
	// rawPieces is the served total T(q) as affine pieces over (floor, hi]
	// (one per grid segment).
	rawPieces []linPiece
	// ratPieces is the rationed total min(UPS, Σ_m min(L_m(q), P_m)) as
	// affine pieces, sub-split at every PDU/UPS clamp crossing. Only built
	// in ration mode.
	ratPieces []linPiece
	// qStar is the lowest strictly-feasible price: the largest crossing at
	// which the last violated PDU/UPS constraint comes back within limits.
	// qStarAttained is false when that happens via a demand jump (the
	// constraint holds only strictly above qStar).
	qStar         float64
	qStarAttained bool
}

// sweep walks the breakpoint grid once, maintaining per-PDU affine load
// coefficients (L_m(q) = A[m] + B[m]·q on the current segment). PDU loads
// are non-increasing in price, so a PDU under its limit never goes back
// over: the set of over-capacity PDUs only shrinks, and the sweep keeps it
// in a compact list, resolving each crossing either smoothly (an affine
// root inside a segment) or via a downward jump at a breakpoint. The same
// machinery yields the exact feasibility frontier for strict clearing and
// the exact clamped total for rationed clearing.
func (m *Market) sweep(evs []sweepEvent, evStart []int, grid []float64) sweepState {
	nPDU := len(m.cons.PDUSpot)
	sc := &m.exact
	A := f64s(sc.sweepA, nPDU)
	B := f64s(sc.sweepB, nPDU)
	over := bools(sc.over, nPDU)
	for i := 0; i < nPDU; i++ {
		A[i], B[i], over[i] = 0, 0, false
	}
	pos := ints(sc.pos, nPDU)               // index into overList while over
	overList := ints(sc.overList, nPDU)[:0] // never exceeds nPDU entries
	sc.sweepA, sc.sweepB, sc.over, sc.pos = A, B, over, pos
	rawA, rawB := 0.0, 0.0
	underA, underB := 0.0, 0.0
	overCapSum := 0.0
	floor := grid[0]
	st := sweepState{
		qStar: floor, qStarAttained: true,
		rawPieces: sc.rawPieces[:0],
		ratPieces: sc.ratPieces[:0],
	}

	markFeasible := func(pdu int, at float64, attained bool) {
		over[pdu] = false
		last := len(overList) - 1
		i := pos[pdu]
		overList[i] = overList[last]
		pos[overList[i]] = i
		overList = overList[:last]
		overCapSum -= m.cons.PDUSpot[pdu]
		underA += A[pdu]
		underB += B[pdu]
		if at > st.qStar {
			st.qStar, st.qStarAttained = at, attained
		} else if at == st.qStar && !attained {
			st.qStarAttained = false
		}
	}

	touched := ints(sc.touched, 16)[:0]
	applyIdx := func(gi int) {
		touched = touched[:0]
		for ei := evStart[gi]; ei < evStart[gi+1]; ei++ {
			e := evs[ei]
			A[e.pdu] += e.dA
			B[e.pdu] += e.dB
			rawA += e.dA
			rawB += e.dB
			if !over[e.pdu] {
				underA += e.dA
				underB += e.dB
			}
			touched = append(touched, e.pdu)
		}
	}

	// Apply the activations at the floor, then classify every PDU.
	applyIdx(0)
	for pdu := 0; pdu < nPDU; pdu++ {
		if A[pdu]+B[pdu]*floor > m.cons.PDUSpot[pdu]+feasEps {
			// Reclassify as over: remove from the under sums.
			over[pdu] = true
			pos[pdu] = len(overList)
			overList = append(overList, pdu)
			overCapSum += m.cons.PDUSpot[pdu]
			underA -= A[pdu]
			underB -= B[pdu]
		}
	}
	rawOverUPS := rawA+rawB*floor > m.cons.UPSSpot+feasEps

	emitRation := func(lo, hiP float64) {
		if hiP <= lo {
			return
		}
		cA, cB := overCapSum+underA, underB
		ups := m.cons.UPSSpot
		vLo, vHi := cA+cB*lo, cA+cB*hiP
		switch {
		case vLo <= ups:
			st.ratPieces = append(st.ratPieces, linPiece{lo: lo, hi: hiP, a: cA, b: cB})
		case vHi > ups:
			st.ratPieces = append(st.ratPieces, linPiece{lo: lo, hi: hiP, a: ups})
		default:
			qc := (ups - cA) / cB // cB < 0 here
			st.ratPieces = append(st.ratPieces,
				linPiece{lo: lo, hi: qc, a: ups},
				linPiece{lo: qc, hi: hiP, a: cA, b: cB})
		}
	}

	for gi := 1; gi < len(grid); gi++ {
		p, g := grid[gi-1], grid[gi]
		// Raw total vs the UPS (strict feasibility): affine on the whole
		// segment, so its crossing needs no sub-splitting.
		if rawOverUPS && rawB < 0 {
			if qc := (m.cons.UPSSpot - rawA) / rawB; qc <= g {
				at := qc
				if at < p {
					at = p
				}
				if at > st.qStar {
					st.qStar, st.qStarAttained = at, true
				}
				rawOverUPS = false
			}
		}
		st.rawPieces = append(st.rawPieces, linPiece{lo: p, hi: g, a: rawA, b: rawB})

		// Sub-split the segment at PDU clamp crossings: scan the (shrinking)
		// over set for the earliest affine root in (cur, g].
		cur := p
		for cur < g {
			nxt, crossPDU := g, -1
			for i := 0; i < len(overList); {
				pdu := overList[i]
				if B[pdu] < 0 {
					qc := (m.cons.PDUSpot[pdu] - A[pdu]) / B[pdu]
					if qc <= cur {
						// Already at or below the clamp (accumulated
						// rounding): flip immediately. Swap-removes
						// overList[i]; revisit the same index.
						markFeasible(pdu, cur, true)
						continue
					}
					if qc < nxt {
						nxt, crossPDU = qc, pdu
					}
				}
				i++
			}
			if m.opts.Ration {
				emitRation(cur, nxt)
			}
			if crossPDU >= 0 {
				markFeasible(crossPDU, nxt, true)
			} else if !m.opts.Ration && len(overList) == 0 {
				// Strict mode past the feasibility frontier: no more
				// sub-structure is needed.
				break
			}
			cur = nxt
		}

		// Apply the events at g and re-check the touched PDUs: a downward
		// jump can carry an over-capacity PDU straight below its limit
		// (feasible only strictly above g).
		applyIdx(gi)
		for _, pdu := range touched {
			if !over[pdu] {
				continue // loads only jump downward; under stays under
			}
			if A[pdu]+B[pdu]*g <= m.cons.PDUSpot[pdu]+feasEps {
				markFeasible(pdu, g, false)
			}
		}
		if rawOverUPS && rawA+rawB*g <= m.cons.UPSSpot+feasEps {
			if g > st.qStar {
				st.qStar, st.qStarAttained = g, false
			} else if g == st.qStar {
				st.qStarAttained = false
			}
			rawOverUPS = false
		}
	}
	if len(overList) > 0 || rawOverUPS {
		// Some constraint never came back within limits on (floor, hi]
		// (possible only when all demand retires exactly at the top): the
		// frontier sits just above the last grid price.
		st.qStar, st.qStarAttained = grid[len(grid)-1], false
	}
	// Persist grown buffers for the next Clear on this market.
	sc.overList, sc.touched = overList[:0], touched[:0]
	sc.rawPieces, sc.ratPieces = st.rawPieces, st.ratPieces
	return st
}
