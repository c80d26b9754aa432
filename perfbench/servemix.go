package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/genmc"
	"dualbank/internal/serve"
)

// The serve-mix workload: one op is one POST /v1/run to an in-process
// dspservd server on loopback, sent open-loop on a fixed schedule and
// timed from when it was due. About nine requests in ten are hot: a
// zipf draw over the suite's (benchmark, mode) keys, all computed
// during setup, so they take the cache's read path. The rest are cold:
// generated programs, each a fresh key compiled exactly once in CB
// mode, checked by the server against the generator's word-exact
// oracle. The seed drives the key sequence and the generated programs.
// The open loop's wall-clock latencies move with the host's steal time
// too much to be bounded, so the end-to-end latencies are each class's
// CPU time per request, sent back to back after the open loop.

const (
	// coldEvery places a fresh generated program at every tenth
	// request. Evenly spaced cold requests keep the run-to-run tail
	// from hinging on how a random draw happened to cluster them.
	coldEvery = 10
	// zipfS is the skew of the hot-key draw: the exponent the
	// repository's own load generator uses by default
	// (cluster.LoadOptions.ZipfS, dsploadgen -zipf-s).
	zipfS = 1.2
	// nominalRPS is the rate of the nominal phase, which the latencies
	// are taken at: under half the highest rate that keeps up on the
	// 2-core reference box, busy but with room.
	nominalRPS = 2400
	// classRPS bounds the rate at which cold requests are sent back to
	// back, for sizing the key sequence: about 1000 req/s on the
	// reference box. Hot requests reach about 18000 req/s and take
	// their keys from the whole sequence, which holds more.
	classRPS = 2000
	// latencyLimit is the tail latency a ladder rate must meet.
	latencyLimit = 100 * time.Millisecond
)

// sendGrace is how long past its schedule a phase may keep sending.
const sendGrace = time.Second

// The ladder wall.max_rate_rps climbs is geometric: ladderRungs rates from
// ladderBase, each ladderStep times the one before. It starts below
// the nominal rate and ends (about 13400 req/s) well above the highest
// rate that keeps up on the 2-core reference box, 5200-6900 req/s. A
// step of 10% keeps the result close to the real ceiling.
const (
	ladderBase  = 2000.0
	ladderStep  = 1.1
	ladderRungs = 21
	// rungShare is the share of the run's length each rung takes.
	rungShare = 1.0 / 30
)

// ladderRPS returns the ladder's rates, lowest first.
func ladderRPS() []float64 {
	rates := make([]float64, ladderRungs)
	r := ladderBase
	for i := range rates {
		rates[i] = math.Round(r)
		r *= ladderStep
	}
	return rates
}

// reqKey is one request of the sequence.
type reqKey struct {
	bench, mode string
	hot         bool
}

func (k reqKey) body() []byte {
	b, _ := json.Marshal(serve.Request{Bench: k.bench, Mode: k.mode})
	return b
}

// hotKeys lists the suite's (benchmark, mode) keys in a fixed order;
// zipf rank i draws key i.
func hotKeys() []reqKey {
	var keys []reqKey
	for _, p := range append(bench.Kernels(), bench.Applications()...) {
		for _, m := range serve.Modes() {
			keys = append(keys, reqKey{bench: p.Name, mode: m, hot: true})
		}
	}
	return keys
}

// keySequence draws the first n requests of the seed's sequence.
// Cold requests take the seed's generated-program population in order,
// so no cold key repeats within a run and two seeds share none.
func keySequence(seed uint64, n int) []reqKey {
	hot := hotKeys()
	r := rand.New(rand.NewSource(int64(seed)))
	z := rand.NewZipf(r, zipfS, 1, uint64(len(hot)-1))
	seq := make([]reqKey, n)
	var cold []int
	for i := range seq {
		if i%coldEvery == coldEvery-1 {
			cold = append(cold, i)
			continue
		}
		seq[i] = hot[z.Uint64()]
	}
	for j, k := range genmc.Population(len(cold), seed) {
		seq[cold[j]] = reqKey{bench: k.Name(), mode: alloc.CB.String()}
	}
	return seq
}

// fixture is a running in-process server with its client.
type fixture struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	// hot maps each hot key to its warm-up reply; cycles and words
	// list the replies' cycle counts and memory words in key order, so
	// their geometric means do not depend on the seed.
	hot           map[reqKey]serve.Response
	cycles, words []float64
}

// startFixture starts a server on loopback and computes every hot key
// through it, so measured hot requests take the cache's read path.
func startFixture(workers int) (*fixture, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve-mix: %w", err)
	}
	f := &fixture{
		srv:    serve.New(serve.Config{Workers: workers}),
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/run",
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
		}},
		hot: make(map[reqKey]serve.Response),
	}
	f.hs = &http.Server{Handler: f.srv.Handler()}
	go func() { f.served <- f.hs.Serve(ln) }()

	keys := hotKeys()
	var mu sync.Mutex
	var firstErr error
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(keys); i = int(next.Add(1) - 1) {
				resp, status, err := f.post(keys[i])
				mu.Lock()
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d", status)
				}
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("serve-mix warm-up %s/%s: %w", keys[i].bench, keys[i].mode, err)
				}
				f.hot[keys[i]] = resp
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		f.close()
		return nil, firstErr
	}
	for _, k := range keys {
		f.cycles = append(f.cycles, float64(f.hot[k].Cycles))
		f.words = append(f.words, float64(f.hot[k].MemTotal))
	}
	return f, nil
}

// close shuts the HTTP server down, waits for it, and stops the
// server's worker pool.
func (f *fixture) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.hs.Shutdown(ctx)
	<-f.served
	f.srv.Close()
	f.client.CloseIdleConnections()
}

// post sends one request and decodes a 200 reply.
func (f *fixture) post(k reqKey) (serve.Response, int, error) {
	var out serve.Response
	resp, err := f.client.Post(f.url, "application/json", bytes.NewReader(k.body()))
	if err != nil {
		return out, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(data, &out)
	}
	return out, resp.StatusCode, err
}

// sent is one request's record.
type sent struct {
	key              reqKey
	due, start, done time.Time
	status           int
	err              error
	resp             serve.Response
	backlog          int
}

// phase is one fixed-rate stretch of the open loop.
type phase struct {
	reqs   []sent
	unsent int
	start  time.Time
	// cpuMs is the process CPU time the phase took.
	cpuMs float64
}

// run sends keys at rate, starting now, from at most workers
// connections. Request i is due at start + i/rate; a sender that falls
// behind sends at once, and the wait counts in that request's latency.
// Requests still unsent sendGrace after the schedule has ended are
// dropped and counted, so an overloaded rate ends in bounded time.
func (f *fixture) run(keys []reqKey, rate float64, workers int) *phase {
	begin := now()
	ph := &phase{reqs: make([]sent, len(keys)), start: begin.wall}
	due := func(i int) time.Time {
		return ph.start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	cutoff := due(len(keys)).Add(sendGrace)
	var next, unsent atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(keys) {
					return
				}
				d := due(i)
				waitUntil(d)
				now := time.Now()
				if now.After(cutoff) {
					unsent.Add(1)
					continue
				}
				r := &ph.reqs[i]
				r.key, r.due, r.start = keys[i], d, now
				// Requests due by now but not yet taken by a sender.
				r.backlog = int(math.Min(float64(len(keys)), math.Floor(now.Sub(ph.start).Seconds()*rate)+1)) - int(next.Load())
				if r.backlog < 0 {
					r.backlog = 0
				}
				r.resp, r.status, r.err = f.post(keys[i])
				r.done = time.Now()
			}
		}()
	}
	wg.Wait()
	ph.cpuMs = ms(now().cpu - begin.cpu)
	ph.unsent = int(unsent.Load())
	return ph
}

// backToBack sends keys from workers connections, each request as
// soon as a connection is free, until the keys run out or the deadline
// passes. A request's due time is its send time.
func (f *fixture) backToBack(keys []reqKey, deadline time.Time, workers int) *phase {
	begin := now()
	ph := &phase{reqs: make([]sent, len(keys)), start: begin.wall}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(keys) && time.Now().Before(deadline); i = int(next.Add(1) - 1) {
				r := &ph.reqs[i]
				r.key, r.start = keys[i], time.Now()
				r.due = r.start
				r.resp, r.status, r.err = f.post(keys[i])
				r.done = time.Now()
			}
		}()
	}
	wg.Wait()
	ph.cpuMs = ms(now().cpu - begin.cpu)
	return ph
}

// waitUntil returns at t. It sleeps in the kernel rather than on the
// runtime's timers, which wake an idle process up to a millisecond
// late and would add that to every request's latency.
func waitUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil)
	}
}

// check classifies each sent request: ok, or failed (a transport
// error, a non-200 status, or a hot reply whose cycles differ from the
// warm-up's). It returns the ok requests and the failure counts.
func (f *fixture) check(ph *phase) (ok []sent, failed, wrong, shed, non200 int) {
	for _, r := range ph.reqs {
		if r.start.IsZero() {
			continue
		}
		switch {
		case r.err != nil:
			failed++
		case r.status != http.StatusOK:
			failed++
			non200++
			if r.status == http.StatusTooManyRequests {
				shed++
			}
			// The server answers 422 when its output check fails.
			if r.status == http.StatusUnprocessableEntity {
				wrong++
			}
		case r.resp.Bench != r.key.bench || (r.key.hot && r.resp.Cycles != f.hot[r.key].Cycles):
			failed++
			wrong++
		default:
			ok = append(ok, r)
		}
	}
	return ok, failed, wrong, shed, non200
}

// latencies returns each ok request's time from due to done, in ms.
func latencies(ok []sent) []float64 {
	out := make([]float64, len(ok))
	for i, r := range ok {
		out[i] = float64(r.done.Sub(r.due).Nanoseconds()) / 1e6
	}
	return out
}

// backlogSlack is how much the backlog may grow over a ladder phase,
// as the time the due requests stand for. A queue that fluctuates at
// a rate the loop sustains stays well inside it; an offered rate a few
// percent over what the loop sustains exceeds it within a second.
const backlogSlack = 10 * time.Millisecond

// keptUp reports whether a phase met the latency limit with a backlog
// that did not grow: every request was sent and succeeded, the
// windowed tail is within the limit, and the median backlog over the
// last third of the sends exceeds the first third's by no more than
// the requests due in backlogSlack.
func keptUp(ph *phase, ok []sent, rate float64) bool {
	n := len(ph.reqs)
	if ph.unsent > 0 || len(ok) != n || n < 3 {
		return false
	}
	if windowedTail(latencies(ok)) > float64(latencyLimit.Milliseconds()) {
		return false
	}
	backlog := func(rs []sent) float64 {
		b := make([]float64, len(rs))
		for i, r := range rs {
			b[i] = float64(r.backlog)
		}
		return median(b)
	}
	return backlog(ph.reqs[2*n/3:]) <= backlog(ph.reqs[:n/3])+rate*backlogSlack.Seconds()
}

// achieved is a phase's completed ok requests per second of its wall
// clock.
func achieved(ph *phase, ok []sent) float64 {
	var last time.Time
	for _, r := range ok {
		if r.done.After(last) {
			last = r.done
		}
	}
	return float64(len(ok)) / last.Sub(ph.start).Seconds()
}

func runServeMix(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	// An untraced run sends at the nominal rate for three fifths of
	// its length, then sends hot requests back to back for a fifth and
	// fresh cold ones for a fifth. A traced run spends two fifths of
	// its length at the nominal rate, then climbs the rate ladder, each
	// rung taking rungShare of the length and the climb stopping soon
	// after the highest rate that keeps up, then replays the nominal
	// phase's cold requests for a fifth of the length.
	fifth := cfg.duration / 5
	nominal := int(nominalRPS*fifth.Seconds()) * 3
	rung := cfg.duration.Seconds() * rungShare
	total := nominal + int(classRPS*fifth.Seconds())*coldEvery
	if cfg.trace {
		nominal = nominal * 2 / 3
		total = nominal
		for _, r := range ladderRPS() {
			total += int(r * rung)
		}
	}
	if nominal < 1 {
		nominal, total = 1, total+1
	}

	var setups times
	var f *fixture
	var seq []reqKey
	for i := 0; i < setupReps; i++ {
		if f != nil {
			f.close()
		}
		s := now()
		var err error
		if f, err = startFixture(cfg.workers); err != nil {
			return nil, err
		}
		seq = keySequence(cfg.seed, total)
		setups.add(s, now())
	}
	defer f.close()
	st0 := f.srv.CacheStats()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	nom := f.run(seq[:nominal], nominalRPS, cfg.workers)
	runtime.ReadMemStats(&ms1)
	full, seq := seq, seq[nominal:]
	ok, failed, wrong, shed, non200 := f.check(nom)
	rep.attempted += int64(len(nom.reqs) - nom.unsent)
	rep.failed += int64(failed)
	rep.incorrect = wrong > 0
	if nom.unsent > 0 {
		fmt.Fprintf(cfg.log, "serve-mix: %d requests of the nominal phase went unsent\n", nom.unsent)
	}
	lat := latencies(ok)
	wall := map[string]float64{
		"wall.setup_s":    median(setups.wall) / 1e3,
		"wall.ops_per_s":  achieved(nom, ok),
		"wall.op_p50_ms":  median(lat),
		"wall.op_tail_ms": windowedTail(lat),
	}
	fmt.Fprintf(cfg.log, "serve-mix: nominal %d req/s; latencies are wall-clock from each request's due time; %s\n", nominalRPS, windowNote("the tail", lat))
	printWall(cfg.log, wall)

	if !cfg.trace {
		// Hot keys repeat the whole sequence's, cold keys are the rest
		// of it: none was sent before.
		var hot, cold []reqKey
		for i, k := range full {
			if k.hot {
				hot = append(hot, k)
			} else if i >= nominal {
				cold = append(cold, k)
			}
		}
		rep.values["setup_s"] = median(setups.cpu) / 1e3
		rep.values["ops_per_cpu_s"] = float64(len(ok)) / (nom.cpuMs / 1e3)
		rep.values["op_p50_ms"] = f.classCPU(rep, cfg, "hot", hot, fifth)
		rep.values["op_tail_ms"] = f.classCPU(rep, cfg, "cold", cold, fifth)
		rep.values["ok_ratio"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
		rep.values["alloc_kb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(len(nom.reqs)-nom.unsent)
		rep.values["sim_cycles_geomean"] = geomean(f.cycles)
		rep.values["mem_words_geomean"] = geomean(f.words)
		rep.printTable(cfg.log, false)
		return rep, nil
	}

	rep.merge(wall)
	fillServeLayers(rep, f, nom, ok, st0, shed, non200)
	rep.values["wall.max_rate_rps"] = f.climb(rep, cfg, seq, rung)
	// Replay the nominal phase's cold requests, one traced op each.
	var cold []job
	for _, r := range ok {
		if !r.key.hot {
			p, _ := bench.ByName(r.key.bench)
			cold = append(cold, job{prog: p, mode: alloc.CB})
		}
	}
	if len(cold) == 0 {
		return nil, errors.New("serve-mix: the nominal phase sent no cold request to replay")
	}
	ops, err := traceOps(ctx, time.Now().Add(cfg.duration/5), func(i int) []job { return cold[i%len(cold) : i%len(cold)+1] })
	if err != nil {
		return nil, err
	}
	rep.attempted += int64(len(ops))
	rep.addTrace(ops)
	rep.printTable(cfg.log, true)
	return rep, nil
}

// classCPU sends one class of requests back to back for d and returns
// the process CPU milliseconds per ok request.
func (f *fixture) classCPU(rep *report, cfg config, class string, keys []reqKey, d time.Duration) float64 {
	ph := f.backToBack(keys, time.Now().Add(d), cfg.workers)
	ok, failed, wrong, _, _ := f.check(ph)
	rep.attempted += int64(len(ok) + failed)
	rep.failed += int64(failed)
	rep.incorrect = rep.incorrect || wrong > 0
	fmt.Fprintf(cfg.log, "serve-mix: %d %s requests back to back, %.4g ms of CPU each\n", len(ok), class, ph.cpuMs/float64(len(ok)))
	return ph.cpuMs / float64(len(ok))
}

// climb runs the rate ladder on the keys in seq, rung seconds a rate,
// until two rates in a row fail to keep up, so one stall of the host
// does not end it early. It returns the rate achieved at the highest
// rate that kept up.
func (f *fixture) climb(rep *report, cfg config, seq []reqKey, rung float64) float64 {
	var maxRate float64
	misses := 0
	for _, r := range ladderRPS() {
		n := int(r * rung)
		ph := f.run(seq[:n], r, cfg.workers)
		seq = seq[n:]
		ok, failed, wrong, _, _ := f.check(ph)
		rep.attempted += int64(len(ph.reqs) - ph.unsent)
		rep.failed += int64(failed)
		rep.incorrect = rep.incorrect || wrong > 0
		up := keptUp(ph, ok, r)
		fmt.Fprintf(cfg.log, "serve-mix: ladder %5.0f req/s: achieved %7.1f, tail %.1f ms, kept up %v\n", r, achieved(ph, ok), windowedTail(latencies(ok)), up)
		if up {
			maxRate, misses = achieved(ph, ok), 0
		} else if misses++; misses == 2 {
			break
		}
	}
	return maxRate
}

// fillServeLayers sets the service and load-generator metrics of the
// nominal phase. Service latencies run from send to reply; the
// overhead is that latency less the compute the server reports, which
// a cached reply did not repeat.
func fillServeLayers(rep *report, f *fixture, ph *phase, ok []sent, st0 bench.CacheStats, shed, non200 int) {
	var hit, miss, over, late []float64
	var compile, simS float64
	backlog := 0
	for _, r := range ok {
		svc := r.done.Sub(r.start)
		compute := 0.0
		if r.resp.Cached {
			hit = append(hit, float64(svc.Nanoseconds())/1e6)
		} else {
			miss = append(miss, float64(svc.Nanoseconds())/1e6)
			compute = r.resp.CompileSeconds + r.resp.SimSeconds
			compile += r.resp.CompileSeconds
			simS += r.resp.SimSeconds
		}
		over = append(over, svc.Seconds()*1e6-compute*1e6)
	}
	for _, r := range ph.reqs {
		if r.start.IsZero() {
			continue
		}
		late = append(late, float64(r.start.Sub(r.due).Nanoseconds())/1e6)
		if r.backlog > backlog {
			backlog = r.backlog
		}
	}
	st := f.srv.CacheStats()
	n := float64(len(ok))
	hits, misses := float64(st.Hits-st0.Hits), float64(st.Misses-st0.Misses)
	rep.values["bench.hits"] = hits / n
	rep.values["bench.misses"] = misses / n
	rep.values["bench.hit_ratio"] = hits / math.Max(1, hits+misses)
	rep.values["bench.compile_ms"] = compile * 1e3 / n
	rep.values["bench.sim_ms"] = simS * 1e3 / n
	rep.values["serve.hit_ratio"] = float64(len(hit)) / n
	rep.values["serve.hit_p50_ms"] = median(hit)
	rep.values["serve.hit_tail_ms"], _ = tail(hit)
	rep.values["serve.miss_p50_ms"] = median(miss)
	rep.values["serve.miss_tail_ms"], _ = tail(miss)
	rep.values["serve.overhead_p50_us"] = median(over)
	rep.values["serve.overhead_tail_us"], _ = tail(over)
	rep.values["serve.shed"] = float64(shed)
	rep.values["serve.non200"] = float64(non200)
	rep.values["loadgen.late_tail_ms"], _ = tail(late)
	rep.values["loadgen.backlog_max"] = float64(backlog)
}
