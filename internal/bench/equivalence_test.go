package bench

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/cost"
	"dualbank/internal/machine"
	"dualbank/internal/pipeline"
	"dualbank/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// This file is the N=2 wall: the classic 2-bank, 1-port machine is the
// k=2 instance of the generalized N-bank model, and its observable
// behaviour is pinned by a committed golden. For every Table 1/2
// benchmark under every allocation mode the golden records the five
// simulator counters, the sha256 of each final bank image and the
// cost-model footprint. Both the zero-value BankSpec and the classic
// geometry spelled out explicitly must reproduce it on both
// simulation engines, so any change to the classic machine — in the
// partitioner, the allocator's layout, the scheduler's unit choice or
// a simulator — fails here. Regenerate with
//
//	go test ./internal/bench -run TestDefaultSpecEquivalenceWall -update
//
// only when such a change is intended.

// classicWallGolden is the committed golden, one line per benchmark
// and mode.
var classicWallGolden = filepath.Join("testdata", "classic_wall.golden")

// equivRun captures one engine's observable outcome: the five pinned
// counters and the per-bank memory images.
type equivRun struct {
	cycles, ops, mem, dual, conf int64
	banks                        [][]uint32
}

func captureRef(t *testing.T, c *pipeline.Compiled) equivRun {
	t.Helper()
	m := sim.NewMachine(c.Sched)
	if err := m.Run(); err != nil {
		t.Fatalf("reference: %v", err)
	}
	return equivRun{m.Cycles, m.OpsExecuted, m.MemAccesses, m.DualMemCycles, m.BankConflicts, m.Banks}
}

func captureCompiled(t *testing.T, c *pipeline.Compiled, batch *sim.Batch) equivRun {
	t.Helper()
	cp, err := sim.Compile(c.Sched)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	m, err := batch.Run(context.Background(), cp)
	if err != nil {
		t.Fatalf("compiled: %v", err)
	}
	// The images are hashed before the batch recycles its arenas.
	return equivRun{m.Cycles, m.OpsExecuted, m.MemAccesses, m.DualMemCycles, m.BankConflicts, m.Banks}
}

// imageHash is the sha256 of a bank image with its trailing zero words
// trimmed. The compiled engine's arenas cover only the used prefix of
// each bank, so trimming makes every engine's image hash alike.
func imageHash(words []uint32) string {
	n := len(words)
	for n > 0 && words[n-1] == 0 {
		n--
	}
	h := sha256.New()
	var buf [4]byte
	for _, w := range words[:n] {
		binary.LittleEndian.PutUint32(buf[:], w)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// wallLine renders one golden line: the engine outcome of bench under
// mode plus the compile's cost-model footprint.
func wallLine(bench string, mode alloc.Mode, r equivRun, m cost.Memory) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s cycles=%d ops=%d mem=%d dual=%d conf=%d",
		bench, mode, r.cycles, r.ops, r.mem, r.dual, r.conf)
	for b, img := range r.banks {
		fmt.Fprintf(&sb, " %s=%s", machine.BankAt(b), imageHash(img))
	}
	extra := "nil"
	if m.Extra != nil {
		extra = fmt.Sprint(m.Extra)
	}
	fmt.Fprintf(&sb, " xdata=%d ydata=%d extra=%s stack=%d instr=%d nbanks=%d",
		m.XData, m.YData, extra, m.Stack, m.Instr, m.NBanks)
	return sb.String()
}

// readWallGolden loads the golden into a map keyed by "bench mode".
func readWallGolden(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(classicWallGolden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	want := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<16)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 {
			want[f[0]+" "+f[1]] = sc.Text()
		}
	}
	return want
}

// TestDefaultSpecEquivalenceWall runs the full 23-benchmark × 7-mode ×
// 2-engine matrix twice — once with the zero-value options and once
// with the classic geometry spelled out as an explicit BankSpec — and
// requires every run to match the committed classic-machine golden:
// the five counters, the bank-image hashes and the cost-model
// footprint (whose NBanks stays 0 and Extra nil, the canonical
// classic values every committed baseline and wire format carry).
func TestDefaultSpecEquivalenceWall(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence wall in short mode")
	}
	modes := []alloc.Mode{
		alloc.SingleBank, alloc.CB, alloc.CBProfiled,
		alloc.CBDup, alloc.FullDup, alloc.Ideal, alloc.LowOrder,
	}
	explicit := machine.BankSpec{Banks: 2, PortsPerBank: 1}
	progs := append(Kernels(), Applications()...)
	if len(progs) != 23 {
		t.Fatalf("suite has %d benchmarks, wall expects 23", len(progs))
	}
	var want map[string]string
	var mu sync.Mutex
	got := map[string]string{}
	if *updateGolden {
		t.Cleanup(func() {
			var sb strings.Builder
			for _, p := range progs {
				for _, mode := range modes {
					sb.WriteString(got[p.Name+" "+mode.String()] + "\n")
				}
			}
			if err := os.WriteFile(classicWallGolden, []byte(sb.String()), 0o644); err != nil {
				t.Error(err)
			}
		})
	} else {
		want = readWallGolden(t)
		if len(want) != len(progs)*len(modes) {
			t.Fatalf("golden has %d lines, want %d", len(want), len(progs)*len(modes))
		}
	}
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			var batch sim.Batch
			for _, mode := range modes {
				key := p.Name + " " + mode.String()
				for _, spec := range []machine.BankSpec{{}, explicit} {
					c, err := pipeline.Compile(p.Source, p.Name, pipeline.Options{Mode: mode, Spec: spec})
					if err != nil {
						t.Fatalf("%v spec %+v: compile: %v", mode, spec, err)
					}
					mem := cost.Of(c.Alloc, c.Sched)
					for _, eng := range []struct {
						name string
						run  equivRun
					}{
						{"reference", captureRef(t, c)},
						{"compiled", captureCompiled(t, c, &batch)},
					} {
						line := wallLine(p.Name, mode, eng.run, mem)
						if *updateGolden {
							mu.Lock()
							if prev, ok := got[key]; ok && prev != line {
								t.Errorf("%s: engines or specs disagree:\n%s\n%s", key, prev, line)
							}
							got[key] = line
							mu.Unlock()
							continue
						}
						if line != want[key] {
							t.Errorf("%s spec %+v engine %s diverged from %s:\ngot:  %s\nwant: %s",
								key, spec, eng.name, classicWallGolden, line, want[key])
						}
					}
				}
			}
		})
	}
}

// TestDefaultSpecKeysIdentical pins the cache-key side of the wall:
// an explicit classic spec must produce the same harness memo key and
// the same config fingerprint as the zero value, so warm caches and
// the on-disk store survive the generalization.
func TestDefaultSpecKeysIdentical(t *testing.T) {
	p, _ := ByName("fir_32_1")
	for _, mode := range []alloc.Mode{alloc.SingleBank, alloc.CB, alloc.CBDup} {
		zero := CacheKey(p, mode, RunOptions{})
		expl := CacheKey(p, mode, RunOptions{Banks: 2, Ports: 1})
		if zero != expl {
			t.Errorf("%v: cache key %q (zero) != %q (explicit 2x1)", mode, zero, expl)
		}
		if got := FingerprintSpec(mode, machine.BankSpec{Banks: 2, PortsPerBank: 1}); got != Fingerprint(mode) {
			t.Errorf("%v: fingerprint %q (explicit) != %q (zero)", mode, got, Fingerprint(mode))
		}
		hw := CacheKey(p, mode, RunOptions{Banks: 4})
		if hw == zero {
			t.Errorf("%v: 4-bank cache key collides with the classic key %q", mode, zero)
		}
	}
}
