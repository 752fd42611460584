package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"
)

// spec mirrors the parts of BENCHMARK.json the harness must agree with.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func names(xs []struct{ Name string }) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = x.Name
	}
	sort.Strings(out)
	return out
}

// TestHarness runs a 200-rack, 20-slot market through all four stack
// configurations, untraced and traced, on two seeds: no operation may fail,
// the two wires must clear identically, the stage spans must add up to the
// turnaround, and the names emitted must be exactly BENCHMARK.json's.
func TestHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	sort.Strings(defined)
	if want := names(sp.Workloads); !slices.Equal(defined, want) {
		t.Fatalf("workloads %v, BENCHMARK.json has %v", defined, want)
	}
	for _, name := range append(append(names(sp.Workloads), names(sp.EndToEnd)...), names(sp.PerLayer)...) {
		if !valid.MatchString(name) || len(name) > 64 {
			t.Errorf("name %q is outside the benchmark contract", name)
		}
	}

	const slots = 20
	checksums := map[int64]uint64{}
	for _, seed := range []int64{1, 2} {
		sums := map[string]uint64{}
		for _, w := range workloads {
			w.racks, w.warmup = 200, 4
			in, err := generate(seed, w.racks)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runUntraced(w, in, time.Minute, slots, t.TempDir())
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != tenantCount*slots {
				t.Errorf("%s seed %d untraced: correct=%v, %d of %d operations failed", w.name, seed, res.Correct, res.Failed, res.Attempted)
			}
			if got, want := res.Metrics.names(), names(sp.EndToEnd); !slices.Equal(got, want) {
				t.Errorf("%s end-to-end metrics %v, BENCHMARK.json has %v", w.name, got, want)
			}
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s %s = %v: end-to-end metrics are never 0", w.name, name, m.Value)
				}
			}
			sums[w.name] = res.checksum

			res, err = runTraced(w, in, time.Minute, slots, t.TempDir())
			if err != nil {
				t.Fatalf("%s seed %d traced: %v", w.name, seed, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s seed %d traced: correct=%v, %d of %d operations failed", w.name, seed, res.Correct, res.Failed, res.Attempted)
			}
			if got, want := res.Metrics.names(), names(sp.PerLayer); !slices.Equal(got, want) {
				t.Errorf("%s per-layer metrics %v, BENCHMARK.json has %v", w.name, got, want)
			}
			if r := res.Metrics["stage_sum_ratio"].Value; r < 0.8 || r > 1.2 {
				t.Errorf("%s stage_sum_ratio %v outside 0.8–1.2", w.name, r)
			}
			if res.checksum != sums[w.name] {
				t.Errorf("%s seed %d: traced run cleared differently from the untraced one", w.name, seed)
			}
			if on := res.Metrics["proto.wal_commit_p50_ms"].Value > 0; on != w.prod {
				t.Errorf("%s: WAL commit span present=%v, prod=%v", w.name, on, w.prod)
			}
		}
		if sums["paper15k-bare"] != sums["paper15k-json"] || sums["paper15k-bare"] != sums["paper15k-prod"] {
			t.Errorf("seed %d: the same market cleared differently across stacks: %x", seed, sums)
		}
		checksums[seed] = sums["paper15k-bare"]
	}
	if checksums[1] == checksums[2] {
		t.Errorf("seeds 1 and 2 produced the same market (checksum %x)", checksums[1])
	}
}
