package serve_test

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"dualbank/internal/serve"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// timingField matches the two wall-clock fields of a /v1/run response,
// the only bytes that legitimately vary between runs.
var timingField = regexp.MustCompile(`"(compile|sim)_seconds": [0-9.eE+-]+`)

// TestRunWireFormatClassic pins the exact /v1/run response bytes for
// fir_32_1 on the classic machine under the CB, Dup and single-bank
// modes, with the timing fields zeroed. The classic footprint is
// canonical: no mem_extra and no mem_nbanks, so clients and caches
// built against the two-bank schema see byte-identical responses.
// Regenerate with
//
//	go test ./internal/serve -run TestRunWireFormatClassic -update
func TestRunWireFormatClassic(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	var got []byte
	for _, mode := range []string{"cb", "dup", "single"} {
		code, data := postRun(t, ts.Client(), ts.URL, `{"bench":"fir_32_1","mode":"`+mode+`"}`)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", mode, code, data)
		}
		got = append(got, timingField.ReplaceAll(data, []byte(`"${1}_seconds": 0`))...)
	}
	golden := filepath.Join("testdata", "run_fir_32_1.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("/v1/run bytes diverged from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
