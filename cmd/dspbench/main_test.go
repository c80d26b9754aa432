package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestCommittedBaselines regenerates the paper's evaluation — the
// dspbench -all report — in-process and requires it to match the
// committed golden byte for byte. The report is deterministic at any
// -parallel width, so any difference means a compiler pass, the cost
// model or a simulator changed what the paper's figures and tables
// show. Regenerate with
//
//	go test ./cmd/dspbench -run TestCommittedBaselines -update
//
// only when such a change is intended.
func TestCommittedBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in -short mode")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	golden := filepath.Join("testdata", "all.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("dspbench -all diverged from %s:\ngot:\n%s", golden, stdout.String())
	}
}

// TestRunErrors pins the command's exit codes: usage errors exit 2,
// runtime errors 1.
func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown benchmark: exit %d, want 2", code)
	}
	if code := run([]string{"-bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"-engine", "nope"}, &stdout, &stderr); code != 1 {
		t.Errorf("bad engine: exit %d, want 1", code)
	}
}
