package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer lets the test read stdout while run() is still writing it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunLifecycle boots the daemon on an ephemeral port, makes one
// request, and shuts it down with the signal a process manager would
// send, asserting a clean exit.
func TestRunLifecycle(t *testing.T) {
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, &stdout, &stderr) }()

	// The listen line carries the kernel-chosen port.
	re := regexp.MustCompile(`listening on ([0-9.]+:[0-9]+)`)
	var addr string
	for deadline := time.Now().Add(5 * time.Second); addr == ""; {
		if m := re.FindStringSubmatch(stdout.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; stderr: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	resp, err = http.Post("http://"+addr+"/v1/run", "application/json",
		strings.NewReader(`{"bench":"fir_32_1","mode":"CB"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run request: status %d", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatal("server did not shut down on SIGTERM")
	}
	if !strings.Contains(stdout.String(), "shutting down") {
		t.Errorf("no shutdown announcement: %q", stdout.String())
	}
}

// TestRunExploreDrain boots the daemon with a checkpoint store,
// submits an exploration wide enough to outlive the test, and sends
// SIGTERM while it runs: the daemon must exit 0 (the job is cancelled,
// not awaited) and the store must hold the evaluations completed
// before the signal, ready for a resumed run.
func TestRunExploreDrain(t *testing.T) {
	ckpt := t.TempDir()
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1", "-explore-store", ckpt}, &stdout, &stderr)
	}()

	re := regexp.MustCompile(`listening on ([0-9.]+:[0-9]+)`)
	var addr string
	for deadline := time.Now().Add(5 * time.Second); addr == ""; {
		if m := re.FindStringSubmatch(stdout.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; stderr: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post("http://"+addr+"/v1/explore", "application/json",
		strings.NewReader(`{"benchmarks":["fft_1024","fir_256_64","iir_4_64","latnrm_32_64"],"budget":500}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("explore submit: %d %s", resp.StatusCode, body)
	}

	// Let at least one evaluation checkpoint before the signal.
	for deadline := time.Now().Add(20 * time.Second); ; {
		files, err := os.ReadDir(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint files appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down with an exploration in flight")
	}

	files, err := os.ReadDir(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("checkpoints vanished across shutdown")
	}
}

func TestRunErrors(t *testing.T) {
	var stdout, stderr syncBuffer
	if code := run([]string{"-bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code := run([]string{"-addr", "256.0.0.1:99999"}, &stdout, &stderr); code != 1 {
		t.Errorf("unlistenable address: exit %d, want 1", code)
	}
	// The retired predecoded engine is an unknown engine, not an alias.
	if code := run([]string{"-engine", "fast"}, &stdout, &stderr); code != 2 {
		t.Errorf("retired fast engine: exit %d, want 2", code)
	}
}
