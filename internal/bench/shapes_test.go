package bench

import (
	"strings"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/pipeline"
)

// This file asserts the paper's qualitative results hold in the
// reproduction — the per-experiment "shape" checks that DESIGN.md's
// experiment index calls out. Absolute numbers differ from the 1996
// testbed; these tests pin down who wins, roughly by how much, and
// where duplication helps or hurts.

// TestFigure7Shape: every kernel gains from CB partitioning with
// double-digit gains for most, and CB reaches the dual-ported Ideal
// for every kernel except iir_4_64 (whose cascaded sections share one
// delay-line array).
func TestFigure7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in short mode")
	}
	rows, err := NewHarness(1).Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("got %d kernels, want 12", len(rows))
	}
	var sum float64
	for _, r := range rows {
		cb, ideal := r.Gains[alloc.CB], r.Gains[alloc.Ideal]
		sum += cb
		if cb < 10 {
			t.Errorf("%s: CB gain %.1f%%, want double digits", r.Bench, cb)
		}
		if cb > 60 {
			t.Errorf("%s: CB gain %.1f%% suspiciously high", r.Bench, cb)
		}
		gap := ideal - cb
		if r.Bench == "iir_4_64" {
			if gap <= 1 {
				t.Errorf("iir_4_64: CB should trail Ideal (CB %.1f%%, Ideal %.1f%%)", cb, ideal)
			}
		} else if gap > 2 {
			t.Errorf("%s: CB %.1f%% should match Ideal %.1f%%", r.Bench, cb, ideal)
		}
	}
	avg := sum / float64(len(rows))
	if avg < 20 || avg > 45 {
		t.Errorf("kernel average CB gain %.1f%%, paper reports 29%%", avg)
	}
}

// TestFigure8Shape: applications gain less than kernels; histogram and
// the G721 codecs gain nothing even with dual-ported memory; lpc is
// rescued by partial duplication; spectral loses from duplication;
// profiled edge weights change nothing.
func TestFigure8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in short mode")
	}
	rows, err := NewHarness(1).Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("got %d applications, want 11", len(rows))
	}
	byName := map[string]FigureRow{}
	for _, r := range rows {
		byName[r.Bench] = r
	}

	// The zero-parallelism programs: no technique helps.
	for _, name := range []string{"histogram", "G721MLencode", "G721MLdecode", "G721WFencode"} {
		r := byName[name]
		if r.Gains[alloc.Ideal] > 2.5 {
			t.Errorf("%s: Ideal gain %.1f%%, expected ~0 (serial dependence chains)",
				name, r.Gains[alloc.Ideal])
		}
	}

	// lpc: the Figure 6 flagship. CB small; Dup large and close to
	// Ideal.
	lpc := byName["lpc"]
	if lpc.Gains[alloc.CB] > 8 {
		t.Errorf("lpc: CB gain %.1f%%, paper reports ~3%%", lpc.Gains[alloc.CB])
	}
	if lpc.Gains[alloc.CBDup] < 20 {
		t.Errorf("lpc: Dup gain %.1f%%, paper reports ~34%%", lpc.Gains[alloc.CBDup])
	}
	if lpc.Gains[alloc.Ideal]-lpc.Gains[alloc.CBDup] > 6 {
		t.Errorf("lpc: Dup (%.1f%%) should approach Ideal (%.1f%%)",
			lpc.Gains[alloc.CBDup], lpc.Gains[alloc.Ideal])
	}
	found := false
	for _, d := range lpc.Duplicated {
		if d == "s" {
			found = true
		}
	}
	if !found {
		t.Errorf("lpc: frame buffer not duplicated (got %v)", lpc.Duplicated)
	}

	// spectral: duplication's bookkeeping stores make Dup worse than
	// plain CB — the paper's inversion.
	sp := byName["spectral"]
	if sp.Gains[alloc.CBDup] >= sp.Gains[alloc.CB] {
		t.Errorf("spectral: Dup (%.1f%%) should underperform CB (%.1f%%)",
			sp.Gains[alloc.CBDup], sp.Gains[alloc.CB])
	}

	// Profiled weights match the static heuristic (the paper's finding
	// that profiling is unnecessary).
	for _, r := range rows {
		if diff := r.Gains[alloc.CBProfiled] - r.Gains[alloc.CB]; diff > 3 || diff < -3 {
			t.Errorf("%s: Pr gain %.1f%% deviates from CB %.1f%%",
				r.Bench, r.Gains[alloc.CBProfiled], r.Gains[alloc.CB])
		}
	}

	// Applications average below the kernel average.
	var appAvg float64
	for _, r := range rows {
		appAvg += r.Gains[alloc.CB]
	}
	appAvg /= float64(len(rows))
	if appAvg > 20 {
		t.Errorf("application average CB gain %.1f%%, should be well below kernels", appAvg)
	}
}

// TestTable3Shape: full duplication's cost always outweighs its
// performance (PCR < 1); CB partitioning is nearly cost-free; partial
// duplication's extra memory is small; lpc's duplication is
// cost-effective (its PCR beats CB's).
func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in short mode")
	}
	rows, err := NewHarness(1).Table3()
	if err != nil {
		t.Fatal(err)
	}
	var fullCI, dupCI, cbCI float64
	for _, r := range rows {
		full := r.Metrics[alloc.FullDup]
		if full.PCR >= 1 {
			t.Errorf("%s: full duplication PCR %.2f, must be < 1", r.Bench, full.PCR)
		}
		if full.CI < 1.3 {
			t.Errorf("%s: full duplication CI %.2f, expected a large cost increase", r.Bench, full.CI)
		}
		cb := r.Metrics[alloc.CB]
		if cb.CI > 1.05 {
			t.Errorf("%s: CB cost increase %.2f, partitioning should be nearly free", r.Bench, cb.CI)
		}
		fullCI += full.CI
		dupCI += r.Metrics[alloc.CBDup].CI
		cbCI += cb.CI
	}
	n := float64(len(rows))
	if fullCI/n < 1.5 {
		t.Errorf("mean full-dup CI %.2f, paper reports 1.62", fullCI/n)
	}
	if dupCI/n > 1.10 {
		t.Errorf("mean partial-dup CI %.2f, paper reports 1.01", dupCI/n)
	}
	if cbCI/n > 1.02 {
		t.Errorf("mean CB CI %.2f, paper reports 0.99", cbCI/n)
	}

	// lpc: duplication is worth its memory (paper: PCR 1.20 vs 1.04).
	for _, r := range rows {
		if r.Bench != "lpc" {
			continue
		}
		if r.Metrics[alloc.CBDup].PCR <= r.Metrics[alloc.CB].PCR {
			t.Errorf("lpc: Dup PCR %.2f should beat CB PCR %.2f",
				r.Metrics[alloc.CBDup].PCR, r.Metrics[alloc.CB].PCR)
		}
	}
}

// TestFigure6DuplicationMarking compiles the literal Figure 6 loop and
// checks the signal array is marked for duplication.
func TestFigure6DuplicationMarking(t *testing.T) {
	src := `
float signal[64] = {1.0};
float R[8];
void main() {
	int n;
	int m;
	for (m = 1; m < 8; m++) {
		float acc = 0.0;
		int r = 64 - m;
		for (n = 1; n < r; n++) {
			acc += signal[n] * signal[n + m];
		}
		R[m] = acc;
	}
}
`
	c, err := pipeline.Compile(src, "fig6", pipeline.Options{Mode: alloc.CBDup})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range c.Alloc.Duplicated {
		names = append(names, s.Name)
	}
	if len(names) != 1 || names[0] != "signal" {
		t.Fatalf("duplicated = %v, want [signal]", names)
	}
}

// TestFigure1Quickstart compiles the Figure 1 FIR filter under CB and
// verifies the inner loop contains the dual parallel move: both
// element loads in one long instruction.
func TestFigure1Quickstart(t *testing.T) {
	src := `
float A[32] = {1.0, 2.0};
float B[32] = {0.5};
float sum;
void main() {
	int i;
	float s = 0.0;
	for (i = 0; i < 32; i++) {
		s += A[i] * B[i];
	}
	sum = s;
}
`
	c, err := pipeline.Compile(src, "fig1", pipeline.Options{Mode: alloc.CB})
	if err != nil {
		t.Fatal(err)
	}
	a, b := c.Global("A"), c.Global("B")
	if a.Bank == b.Bank {
		t.Fatalf("A and B share bank %v", a.Bank)
	}
	// The whole filter must run at ~2 cycles per tap plus constant
	// overhead, like the hand-written DSP56001 listing's single-cycle
	// MAC-with-two-moves steady state over two instructions.
	m, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycles > 2*32+16 {
		t.Errorf("FIR took %d cycles; dual-bank schedule should be ~%d", m.Cycles, 2*32)
	}
	got, err := m.Float32(c.Global("sum"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.5 { // only A[0]*B[0] is non-zero
		t.Errorf("sum = %g, want 0.5", got)
	}
}

// TestBenchmarkNamesMatchTables: the suite names match Tables 1 and 2.
func TestBenchmarkNamesMatchTables(t *testing.T) {
	wantKernels := []string{
		"fft_1024", "fft_256", "fir_256_64", "fir_32_1", "iir_4_64",
		"iir_1_1", "latnrm_32_64", "latnrm_8_1", "lmsfir_32_64",
		"lmsfir_8_1", "mult_10_10", "mult_4_4",
	}
	ks := Kernels()
	for i, w := range wantKernels {
		if ks[i].Name != w {
			t.Errorf("kernel %d = %s, want %s", i, ks[i].Name, w)
		}
		if ks[i].Kind != Kernel {
			t.Errorf("%s misclassified", w)
		}
	}
	wantApps := []string{
		"adpcm", "lpc", "spectral", "edge_detect", "compress",
		"histogram", "V32encode", "G721MLencode", "G721MLdecode",
		"G721WFencode", "trellis",
	}
	as := Applications()
	for i, w := range wantApps {
		if as[i].Name != w {
			t.Errorf("application %d = %s, want %s", i, as[i].Name, w)
		}
		if as[i].Kind != Application {
			t.Errorf("%s misclassified", w)
		}
	}
	if _, ok := ByName("lpc"); !ok {
		t.Error("ByName(lpc) failed")
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Error("ByName(nonesuch) succeeded")
	}
}

// TestRenderers: the text renderers include every benchmark and the
// column heads.
func TestRenderers(t *testing.T) {
	rows := []FigureRow{{
		Bench:      "demo",
		BaseCycles: 100,
		Gains:      map[alloc.Mode]float64{alloc.CB: 25},
		Cycles:     map[alloc.Mode]int64{alloc.CB: 80},
	}}
	out := RenderFigure("T", rows, []alloc.Mode{alloc.CB})
	for _, want := range []string{"T", "demo", "25.0%", "average"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure render missing %q:\n%s", want, out)
		}
	}
}
