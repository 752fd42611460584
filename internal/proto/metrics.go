package proto

import (
	"spotdc/internal/metrics"
)

// Bid-rejection reason label values of spotdc_proto_bid_rejects_total.
const (
	rejectSlot    = "slot"    // negative slot index
	rejectRack    = "rack"    // rack not registered for the tenant
	rejectInvalid = "invalid" // demand function failed validation
	rejectStale   = "stale"   // bid for a slot the market is past
	rejectWindow  = "window"  // bid beyond the acceptance window
)

// Outbound-drop reason label values of spotdc_proto_outbound_drops_total.
const (
	dropQueueFull  = "full"  // slow consumer: bounded queue overflowed
	dropWriteError = "error" // send failed (deadline expiry, reset, sever)
)

// Metrics is the protocol layer's pre-registered instrumentation handle
// set, shared by the server, clients, and fault injectors of one run (the
// networked harness wires the same set everywhere, so /metrics shows the
// whole protocol plane at once). Build one with NewMetrics and hand it to
// ServerOptions.Metrics / ClientOptions.Metrics / FaultInjector.SetMetrics.
// All methods are nil-receiver safe: an uninstrumented run pays one nil
// check per event.
type Metrics struct {
	sessionsActive *metrics.Gauge
	sessionsOpened *metrics.Counter
	sessionsReaped *metrics.Counter
	reconnects     *metrics.Counter

	bidsAccepted *metrics.Counter
	rejSlot      *metrics.Counter
	rejRack      *metrics.Counter
	rejInvalid   *metrics.Counter
	rejStale     *metrics.Counter
	rejWindow    *metrics.Counter

	broadcastsOK     *metrics.Counter
	broadcastsFailed *metrics.Counter
	bcastJSON        *metrics.Counter
	bcastBinary      *metrics.Counter

	outQueueDepth    *metrics.Gauge
	outDropFull      *metrics.Counter
	outDropError     *metrics.Counter
	deadlineExpiries *metrics.Counter

	faultDrops  *metrics.Counter
	faultDelays *metrics.Counter
	faultSevers *metrics.Counter
}

// NewMetrics registers the protocol families on r and returns the handle
// set. Registration is idempotent per registry.
func NewMetrics(r *metrics.Registry) *Metrics {
	rejects := r.CounterVec("spotdc_proto_bid_rejects_total",
		"Bid messages rejected by the server, by reason (slot, rack, invalid, stale, window).", "reason")
	bcast := r.CounterVec("spotdc_proto_broadcasts_total",
		"Per-session price broadcast sends, by result (ok, failed); a failed send leaves that tenant on the no-spot default.", "result")
	faults := r.CounterVec("spotdc_proto_faults_injected_total",
		"Protocol faults injected by the seeded FaultInjector, by kind (drop, delay, sever).", "kind")
	bcastEnc := r.CounterVec("spotdc_proto_broadcasts_by_encoding_total",
		"Successful per-session broadcast sends (price, budget_reset), by wire encoding (json, binary).", "encoding")
	outDrops := r.CounterVec("spotdc_proto_outbound_drops_total",
		"Outbound messages dropped by the writer path, by reason (full = slow-consumer queue overflow, error = failed send); either drops the session to the no-spot default.", "reason")
	return &Metrics{
		sessionsActive: r.Gauge("spotdc_proto_sessions_active",
			"Currently connected tenant sessions."),
		sessionsOpened: r.Counter("spotdc_proto_sessions_opened_total",
			"Tenant sessions accepted (hello handshakes completed)."),
		sessionsReaped: r.Counter("spotdc_proto_sessions_reaped_total",
			"Sessions expired by the idle reaper or evicted by a re-hello."),
		reconnects: r.Counter("spotdc_proto_client_reconnects_total",
			"Dropped client sessions restored by automatic redial."),
		bidsAccepted: r.Counter("spotdc_proto_bids_accepted_total",
			"Bid messages validated and buffered for a future slot."),
		rejSlot:          rejects.With(rejectSlot),
		rejRack:          rejects.With(rejectRack),
		rejInvalid:       rejects.With(rejectInvalid),
		rejStale:         rejects.With(rejectStale),
		rejWindow:        rejects.With(rejectWindow),
		broadcastsOK:     bcast.With("ok"),
		broadcastsFailed: bcast.With("failed"),
		bcastJSON:        bcastEnc.With("json"),
		bcastBinary:      bcastEnc.With("binary"),
		outQueueDepth: r.Gauge("spotdc_proto_outbound_queue_depth",
			"Messages currently buffered in per-session outbound queues, summed across sessions."),
		outDropFull:  outDrops.With(dropQueueFull),
		outDropError: outDrops.With(dropWriteError),
		deadlineExpiries: r.Counter("spotdc_proto_send_deadline_expiries_total",
			"Outbound sends that hit the per-message write deadline (5 s, after which the peer is dropped)."),
		faultDrops:  faults.With("drop"),
		faultDelays: faults.With("delay"),
		faultSevers: faults.With("sever"),
	}
}

func (pm *Metrics) setSessions(n int) {
	if pm == nil {
		return
	}
	pm.sessionsActive.Set(float64(n))
}

func (pm *Metrics) sessionOpened() {
	if pm == nil {
		return
	}
	pm.sessionsOpened.Inc()
}

func (pm *Metrics) sessionReaped() {
	if pm == nil {
		return
	}
	pm.sessionsReaped.Inc()
}

func (pm *Metrics) clientReconnected() {
	if pm == nil {
		return
	}
	pm.reconnects.Inc()
}

func (pm *Metrics) bidAccepted() {
	if pm == nil {
		return
	}
	pm.bidsAccepted.Inc()
}

// bidRejected records one rejected bid message by reason (one of the
// reject* constants).
func (pm *Metrics) bidRejected(reason string) {
	if pm == nil {
		return
	}
	switch reason {
	case rejectSlot:
		pm.rejSlot.Inc()
	case rejectRack:
		pm.rejRack.Inc()
	case rejectInvalid:
		pm.rejInvalid.Inc()
	case rejectStale:
		pm.rejStale.Inc()
	case rejectWindow:
		pm.rejWindow.Inc()
	}
}

func (pm *Metrics) broadcast(ok bool) {
	if pm == nil {
		return
	}
	if ok {
		pm.broadcastsOK.Inc()
	} else {
		pm.broadcastsFailed.Inc()
	}
}

// broadcastEncoded records one successful broadcast send by wire encoding.
func (pm *Metrics) broadcastEncoded(e Encoding) {
	if pm == nil {
		return
	}
	if e == WireBinary {
		pm.bcastBinary.Inc()
	} else {
		pm.bcastJSON.Inc()
	}
}

// queueDepth moves the summed outbound queue depth gauge by delta.
func (pm *Metrics) queueDepth(delta int) {
	if pm == nil {
		return
	}
	pm.outQueueDepth.Add(float64(delta))
}

// outboundDropped records one dropped outbound message by reason (one of
// the drop* constants).
func (pm *Metrics) outboundDropped(reason string) {
	if pm == nil {
		return
	}
	if reason == dropQueueFull {
		pm.outDropFull.Inc()
	} else {
		pm.outDropError.Inc()
	}
}

func (pm *Metrics) sendDeadlineExpired() {
	if pm == nil {
		return
	}
	pm.deadlineExpiries.Inc()
}
