package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// child runs one workload in a process of its own and returns its result
// line and its printed checksum. echo copies the child's report to stdout.
func child(w workload, seed int64, seconds int, traced bool, state string, echo bool) (result, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, "", err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", trace, "-state", state)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, "", fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}
	var last, checksum string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" && echo {
			fmt.Println(last)
		}
		last = sc.Text()
		if strings.HasPrefix(last, "checksum ") {
			checksum = last[strings.LastIndexByte(last, ' ')+1:]
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, "", fmt.Errorf("%s seed %d: result line: %w", w.name, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		return res, checksum, fmt.Errorf("%s seed %d: correct=%v, %d of %d operations failed",
			w.name, seed, res.Correct, res.Failed, res.Attempted)
	}
	return res, checksum, nil
}

// runAll is the one command: an unreported priming pass (the first process
// after a build sets up noticeably slower), then every workload untraced
// and traced in processes of their own, every metric printed by name. It
// fails if any check inside a run fails, if paper15k-bare and paper15k-json
// disagree on prices and grants, or if two runs of one seed disagree.
func runAll(seed int64, seconds int, state string) error {
	bare, _ := workloadByName("paper15k-bare")
	_, primed, err := child(bare, seed, 1, false, state, false)
	if err != nil {
		return err
	}
	var errs []error
	sums := map[string]string{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			_, sum, err := child(w, seed, seconds, traced, state, true)
			if err != nil {
				errs = append(errs, err)
			}
			if !traced {
				sums[w.name] = sum
			}
			fmt.Println()
		}
	}
	if sums["paper15k-bare"] != primed {
		errs = append(errs, fmt.Errorf("two runs of seed %d disagree: checksum %s then %s", seed, primed, sums["paper15k-bare"]))
	}
	if sums["paper15k-bare"] != sums["paper15k-json"] {
		errs = append(errs, fmt.Errorf("binary and JSON wires disagree: checksum %s vs %s",
			sums["paper15k-bare"], sums["paper15k-json"]))
	}
	if len(errs) == 0 {
		fmt.Printf("all checks passed; paper15k-bare and paper15k-json share checksum %s\n", sums["paper15k-bare"])
	}
	return errors.Join(errs...)
}

// benchSpec is the part of BENCHMARK.json the self-check reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles follows Python's statistics.quantiles(xs, n=4), which is what
// the benchmark driver computes its spreads with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// runSelfcheck measures the benchmark against itself the way the driver
// will: two interleaved sets (A B A B …) of runs per workload, one seed per
// run and the same seeds in both sets. Per metric it prints each set's
// median and quartiles, the spread (interquartile range over median) and
// the relative gap between the set medians (positive: B worse), as Markdown.
// It fails when a gap in either direction, or a spread other than
// setup_s's, exceeds the metric's bound: on identical code a set that reads
// much better is the same noise as one that reads much worse.
func runSelfcheck(runs, seconds int, state string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	if runs < 2 {
		return errors.New("selfcheck needs at least 2 runs per set")
	}
	fmt.Printf("# Noise self-check\n\n`bench -selfcheck -runs %d -seconds %d`: two interleaved sets of %d runs per workload, seeds 1–%d in each set.\n",
		runs, seconds, runs, runs)
	fmt.Printf("Spread is (Q3 − Q1) / median within a set; gap is the difference between the set medians as a share of A's, positive where B is worse. Spread and |gap| must stay within the bound (spread of `setup_s` excepted).\n")
	var errs []error
	for _, w := range workloads {
		// values[set][metric] lists one value per run.
		values := [2]map[string][]float64{{}, {}}
		for seed := int64(1); seed <= int64(runs); seed++ {
			for set := range values {
				res, _, err := child(w, seed, seconds, false, state, false)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					values[set][name] = append(values[set][name], m.Value)
				}
			}
		}
		fmt.Printf("\n## %s\n\n| metric | A median [Q1, Q3] | B median [Q1, Q3] | spread A | spread B | gap | bound | verdict |\n|---|---|---|---|---|---|---|---|\n", w.name)
		for _, e := range spec.EndToEnd {
			a1, a2, a3 := quartiles(values[0][e.Name])
			b1, b2, b3 := quartiles(values[1][e.Name])
			gap := (b2 - a2) / a2
			if e.Better == "higher" {
				gap = -gap
			}
			spread := max((a3-a1)/a2, (b3-b1)/b2)
			verdict := "ok"
			switch {
			case math.Abs(gap) > e.Bound:
				verdict = "GAP"
			case spread > e.Bound && e.Name != "setup_s":
				verdict = "SPREAD"
			case spread > e.Bound/3 && e.Name != "setup_s":
				verdict = "ok (spread above a third of the bound)"
			}
			if verdict == "GAP" || verdict == "SPREAD" {
				errs = append(errs, fmt.Errorf("%s %s: spread %.4f, gap %.4f, bound %.2f", w.name, e.Name, spread, gap, e.Bound))
			}
			fmt.Printf("| `%s` | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %.4f | %.4f | %+.4f | %.2f | %s |\n",
				e.Name, a2, a1, a3, b2, b1, b3, (a3-a1)/a2, (b3-b1)/b2, gap, e.Bound, verdict)
		}
		fmt.Printf("\nEvery run, in seed order (A then B per metric):\n\n")
		for _, e := range spec.EndToEnd {
			for set, label := range []string{"A", "B"} {
				fmt.Printf("- `%s` %s:", e.Name, label)
				for _, v := range values[set][e.Name] {
					fmt.Printf(" %.4g", v)
				}
				fmt.Println()
			}
		}
	}
	return errors.Join(errs...)
}
