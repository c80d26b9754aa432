package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/genmc"
	"dualbank/internal/pipeline"
)

func TestKeySequenceRepeatsForSeed(t *testing.T) {
	a, b := keySequence(7, 3000), keySequence(7, 3000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different key sequences")
	}
	cold := 0
	for _, k := range a {
		if k.hot {
			continue
		}
		cold++
		p1, ok1 := genmc.FromName(k.bench)
		p2, ok2 := genmc.FromName(k.bench)
		if !ok1 || !ok2 || p1.Source != p2.Source || !reflect.DeepEqual(p1.Out, p2.Out) {
			t.Fatalf("cold key %s does not name one reproducible program", k.bench)
		}
	}
	if cold == 0 || cold == len(a) {
		t.Fatalf("%d cold keys of %d: the mix has lost one side", cold, len(a))
	}
}

func TestKeySequenceSeedsShareNoColdKey(t *testing.T) {
	coldKeys := func(seed uint64) map[string]bool {
		m := make(map[string]bool)
		for _, k := range keySequence(seed, 3000) {
			if !k.hot {
				if m[k.bench] {
					t.Fatalf("seed %d repeats cold key %s", seed, k.bench)
				}
				m[k.bench] = true
			}
		}
		return m
	}
	a, b := coldKeys(1), coldKeys(2)
	for k := range a {
		if b[k] {
			t.Fatalf("seeds 1 and 2 share cold key %s", k)
		}
	}
}

// TestLadderStepsFinely checks that the rate ladder starts below the
// nominal rate, ends far above it, and climbs in steps small enough
// that wall.max_rate_rps stays close to the real ceiling.
func TestLadderStepsFinely(t *testing.T) {
	rates := ladderRPS()
	if rates[0] >= nominalRPS || rates[len(rates)-1] < 5*nominalRPS {
		t.Fatalf("ladder %v does not run from below %d req/s to five times it", rates, nominalRPS)
	}
	for i := 1; i < len(rates); i++ {
		if step := rates[i] / rates[i-1]; step <= 1 || step > 1.2 {
			t.Fatalf("ladder step %v -> %v is %.3f", rates[i-1], rates[i], step)
		}
	}
}

func TestFidelityFiresOnMismatchedJob(t *testing.T) {
	p, ok := bench.ByName("fir_32_1")
	if !ok {
		t.Fatal("fir_32_1 missing from the suite")
	}
	ctx := context.Background()
	cb := job{prog: p, mode: alloc.CB}
	single := job{prog: p, mode: alloc.SingleBank}
	got, err := newReplayer().replay(ctx, cb)
	if err != nil {
		t.Fatal(err)
	}
	same, err := reference(ctx, new(pipeline.Compiler), cb)
	if err != nil {
		t.Fatal(err)
	}
	if err := fidelity(cb, got, same); err != nil {
		t.Fatalf("replay of the job itself: %v", err)
	}
	other, err := reference(ctx, new(pipeline.Compiler), single)
	if err != nil {
		t.Fatal(err)
	}
	if err := fidelity(cb, got, other); err == nil {
		t.Fatal("a CB replay checked against a single-bank reference passed the fidelity check")
	}
}

// TestTinyRunsPrintEveryMetric runs every workload briefly, traced and
// untraced, and checks that the result line holds exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 3, duration: 200 * time.Millisecond, trace: traced,
				workers: 2, hwPath: "../BENCH_hw.json", log: io.Discard}
			rep, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, traced, err)
			}
			line, err := rep.resultLine(traced)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, traced, err)
			}
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil || strings.Contains(line, "\n") {
				t.Fatalf("%s: result line %q does not parse: %v", w.Name, line, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s (trace %v): metric %s is %+v, want unit %q", w.Name, traced, d.Name, m, d.Unit)
				}
			}
		}
	}
}
