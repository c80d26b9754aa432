package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedBaselines regenerates the explorer's three committed
// baselines in-process — the pinned-suite frontier (BENCH_explore.json),
// the certified optimality gaps (BENCH_gaps.json) and the hardware
// co-design surface (BENCH_hw.json) — and requires each to match the
// committed file byte for byte, at one worker and at four. All three
// are deterministic at any width, so a difference means a partitioner,
// the allocator, the scheduler, a simulator or the fan-out changed
// behaviour. To accept an intended change, rerun the command named in
// the failure and commit the file it writes.
func TestCommittedBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline sweeps in -short mode")
	}
	for _, tc := range []struct{ file, flag string }{
		{"BENCH_explore.json", "-bench-report"},
		{"BENCH_gaps.json", "-certify"},
		{"BENCH_hw.json", "-hw-report"},
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []string{"1", "4"} {
			t.Run(tc.file+"/workers="+workers, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), tc.file)
				var stdout, stderr bytes.Buffer
				if code := run([]string{tc.flag, path, "-workers", workers, "-quiet"}, &stdout, &stderr); code != 0 {
					t.Fatalf("%s: exit %d, stderr: %s", tc.flag, code, stderr.String())
				}
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s at -workers %s drifted from the committed baseline; regenerate with\n\tgo run ./cmd/dspexplore %s %s -quiet",
						tc.file, workers, tc.flag, tc.file)
				}
			})
		}
	}
}
