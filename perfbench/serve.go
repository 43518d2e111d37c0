package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"rubix/internal/server"
	"rubix/internal/sim"
	"rubix/internal/store"
)

// workDir holds serve's stores. It is relative to the working directory,
// the root of the checkout the benchmark runs in.
const workDir = ".bench_build/serve"

// timedStore wraps the store to time Get and Put from outside. Calls come
// from the server's executor goroutines.
type timedStore struct {
	s *store.Store

	mu     sync.Mutex
	gets   []float64           // µs; guarded by mu
	puts   []float64           // µs; guarded by mu
	getIv  map[string]interval // key -> its (first) Get this round; guarded by mu
	hits   int                 // guarded by mu
	misses int                 // guarded by mu
}

func (t *timedStore) Get(key string) ([]byte, bool) {
	t0 := time.Now()
	data, ok := t.s.Get(key)
	t1 := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gets = append(t.gets, float64(t1.Sub(t0))/1e3)
	if _, seen := t.getIv[key]; !seen {
		t.getIv[key] = interval{t0, t1}
	}
	if ok {
		t.hits++
	} else {
		t.misses++
	}
	return data, ok
}

func (t *timedStore) Put(key string, payload []byte) error {
	t0 := time.Now()
	err := t.s.Put(key, payload)
	d := float64(time.Since(t0))
	t.mu.Lock()
	t.puts = append(t.puts, d/1e3)
	t.mu.Unlock()
	return err
}

// stats returns what the store saw. Call it once the server has stopped.
func (t *timedStore) stats() (gets, puts []float64, getIv map[string]interval, hits, misses int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.gets, t.puts, t.getIv, t.hits, t.misses
}

// interval is a stretch of wall time spent on one spec: its store Get or
// its simulation.
type interval struct{ start, end time.Time }

// busyNs returns how much of [lo, hi] the intervals cover, counting
// overlapping stretches once.
func busyNs(ivs []interval, lo, hi time.Time) float64 {
	var clipped []interval
	for _, iv := range ivs {
		if iv.start.Before(lo) {
			iv.start = lo
		}
		if iv.end.After(hi) {
			iv.end = hi
		}
		if iv.end.After(iv.start) {
			clipped = append(clipped, iv)
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int { return a.start.Compare(b.start) })
	var ns float64
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start.After(cur.end):
			ns += float64(cur.end.Sub(cur.start))
			cur = iv
		case iv.end.After(cur.end):
			cur.end = iv.end
		}
	}
	if len(clipped) > 0 {
		ns += float64(cur.end.Sub(cur.start))
	}
	return ns
}

// liveServer is an in-process rubixd on a loopback listener.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

// startServer starts a server whose batches each run at most parallel
// simulations at once (0 = the server's default, NumCPU).
func startServer(opts sim.Options, st sim.ResultStore, parallel int) (*liveServer, error) {
	srv, err := server.New(server.Config{Sim: opts, Store: st, Parallelism: parallel})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveServer{srv: srv, hs: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	return ls, nil
}

// stop shuts the listener down, drains the server and waits for Serve to
// return.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	ls.srv.Close()
	if serr := <-ls.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// counters reads the rubixd counters from /metrics.
func counters(c *http.Client, url string) (map[string]uint64, error) {
	resp, err := c.Get(url + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return snap.Counters, nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

// serveSetup fills a new store with the store-hit specs through the
// service itself, then restarts the server over it, so the measured rounds
// hit the store rather than a warm memory cache. It returns the store's
// directory.
func serveSetup(opts sim.Options) (string, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(workDir, "warm-")
	if err != nil {
		return "", err
	}
	st, err := store.Open(dir)
	if err != nil {
		return "", err
	}
	hits := serveHitSpecs()
	body, err := json.Marshal(server.BatchRequest{Specs: hits})
	if err != nil {
		return "", err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	ls, err := startServer(opts, st, 0)
	if err != nil {
		return "", err
	}
	code, data, err := post(c, ls.url+"/batch", body)
	if serr := ls.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return "", err
	}
	if _, err := batchResults(code, data, hits); err != nil {
		return "", fmt.Errorf("filling store: %w", err)
	}
	if ls, err = startServer(opts, st, 0); err != nil {
		return "", err
	}
	resp, err := c.Get(ls.url + "/healthz")
	if err == nil {
		resp.Body.Close()
	}
	if serr := ls.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return "", err
	}
	if n, err := st.Len(); err != nil || n != len(hits) {
		return "", fmt.Errorf("store holds %d entries (%v), want %d", n, err, len(hits))
	}
	return dir, nil
}

// batchResults validates a /batch reply and returns its per-spec payloads.
func batchResults(code int, data []byte, specs []sim.RunSpec) ([][]byte, error) {
	if code != http.StatusOK {
		return nil, fmt.Errorf("/batch: HTTP %d: %.200s", code, data)
	}
	var resp server.BatchResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("/batch: %w", err)
	}
	if len(resp.Results) != len(specs) {
		return nil, fmt.Errorf("/batch: %d results for %d specs", len(resp.Results), len(specs))
	}
	out := make([][]byte, len(specs))
	for i, it := range resp.Results {
		if it.Spec != specs[i] || it.Error != "" || len(it.Result) == 0 {
			return nil, fmt.Errorf("/batch item %d (%s): spec %s, error %q", i, specs[i], it.Spec, it.Error)
		}
		out[i] = it.Result
	}
	return out, nil
}

// opResult is one measured request.
type opResult struct {
	op    serveOp
	code  int
	body  []byte
	start time.Time
	rtt   time.Duration
	err   error
}

// serveRun holds what serve's rounds carry between them.
type serveRun struct {
	g      golden
	opts   sim.Options
	warm   string
	st     *runStats
	traced bool
	seed   uint64

	served   map[sim.RunSpec][32]byte // sha256 of the bytes first served
	payloads map[sim.RunSpec][]byte   // first served bytes of store-hit specs

	// traced only
	getUs, putUs           []float64
	storeHits, storeMisses int
	cnt                    map[string]uint64
	opsSeen                []tracedOp
	runMs                  []float64 // OnRunDone wall time of each fresh simulation
}

// tracedOp is one request with the store and simulation time spent on its
// specs, for the server's self time.
type tracedOp struct {
	run     bool
	rttNs   float64
	innerNs float64 // wall time within the request covered by its specs' store Gets and simulations
	hitSpec int     // specs served from the store (codec decode + encode)
	simSpec int     // freshly simulated specs (encode)
}

func (sr *serveRun) round(r int) error {
	conns := serveRound(sr.seed, r)
	dir, err := os.MkdirTemp(workDir, "round-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := copyTree(sr.warm, dir); err != nil {
		return err
	}
	base, err := store.Open(dir)
	if err != nil {
		return err
	}
	var rs sim.ResultStore = base
	var ts *timedStore
	if sr.traced {
		ts = &timedStore{s: base, getIv: map[string]interval{}}
		rs = ts
	}
	opts := sr.opts
	instr := float64(opts.Cores) * float64(uint64(250_000_000*opts.Scale))
	var mu sync.Mutex
	runIv := map[sim.RunSpec]interval{}
	opts.OnRunDone = func(spec sim.RunSpec, res *sim.Result, wallNs int64) {
		end := time.Now()
		mu.Lock()
		defer mu.Unlock()
		sr.st.freshWallNs += wallNs
		sr.st.freshInstr += instr
		sr.st.freshAcc += res.DRAM.Accesses
		runIv[spec] = interval{end.Add(-time.Duration(wallNs)), end}
	}
	// Request bodies are encoded before the clock starts.
	bodies := make([][][]byte, len(conns))
	for c, ops := range conns {
		for _, op := range ops {
			var b []byte
			if op.Run {
				b, err = json.Marshal(op.Specs[0])
			} else {
				b, err = json.Marshal(server.BatchRequest{Specs: op.Specs})
			}
			if err != nil {
				return err
			}
			bodies[c] = append(bodies[c], b)
		}
	}
	ls, err := startServer(opts, rs, serveParallelism)
	if err != nil {
		return err
	}
	clients := make([]*http.Client, len(conns))
	for c := range clients {
		clients[c] = newClient()
	}
	results := make([][]opResult, len(conns))
	a0 := allocBytes()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, op := range conns[c] {
				url := ls.url + "/batch"
				if op.Run {
					url = ls.url + "/run"
				}
				t0 := time.Now()
				code, body, err := post(clients[c], url, bodies[c][i])
				//lint:allow goroutineescape each goroutine appends only to its own results[c]; wg.Wait orders the writes before the reads
				results[c] = append(results[c], opResult{op: op, code: code, body: body, start: t0, rtt: time.Since(t0), err: err})
			}
		}(c)
	}
	wg.Wait()
	el := time.Since(start).Seconds()
	sr.st.allocMB = append(sr.st.allocMB, float64(allocBytes()-a0)/(1<<20))
	cnt, cerr := counters(clients[0], ls.url)
	serr := ls.stop()
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	if err := errors.Join(cerr, serr); err != nil {
		return err
	}
	nops := 0
	for _, rs := range results {
		nops += len(rs)
	}
	sr.st.makespanS = append(sr.st.makespanS, el)
	sr.st.opsPerS = append(sr.st.opsPerS, float64(nops)/el)

	// Check every response, then the server's own accounting of the round.
	fresh, hit := map[sim.RunSpec]bool{}, map[sim.RunSpec]bool{}
	for _, rs := range results {
		for _, res := range rs {
			sr.st.attempted++
			sr.st.opMs = append(sr.st.opMs, float64(res.rtt)/1e6)
			if err := sr.check(res); err != nil {
				sr.st.fail(err)
			}
			for _, s := range res.op.Specs {
				if s.TRH == serveFreshTRH {
					fresh[s] = true
				} else {
					hit[s] = true
				}
			}
		}
	}
	sr.st.attempted++
	if cnt["rubixd_sims_fresh"] != uint64(len(fresh)) || cnt["rubixd_store_hits"] != uint64(len(hit)) ||
		cnt["rubixd_sim_errors"] != 0 || cnt["rubixd_store_errors"] != 0 || cnt["rubixd_http_errors"] != 0 {
		sr.st.fail(fmt.Errorf("round %d: counters %v, want %d fresh simulations and %d store hits", r, cnt, len(fresh), len(hit)))
	}
	if !sr.traced {
		return nil
	}
	for _, iv := range runIv {
		sr.runMs = append(sr.runMs, float64(iv.end.Sub(iv.start))/1e6)
	}
	gets, puts, getIv, hits, misses := ts.stats()
	sr.getUs = append(sr.getUs, gets...)
	sr.putUs = append(sr.putUs, puts...)
	sr.storeHits += hits
	sr.storeMisses += misses
	for k, v := range cnt {
		sr.cnt[k] += v
	}
	for _, rs := range results {
		for _, res := range rs {
			t := tracedOp{run: res.op.Run, rttNs: float64(res.rtt)}
			var ivs []interval
			for _, s := range res.op.Specs {
				if iv, ok := runIv[s]; ok {
					ivs = append(ivs, iv)
					t.simSpec++
				} else {
					ivs = append(ivs, getIv[sim.StoreKey(s, sr.opts)])
					t.hitSpec++
				}
			}
			t.innerNs = busyNs(ivs, res.start, res.start.Add(res.rtt))
			sr.opsSeen = append(sr.opsSeen, t)
		}
	}
	return nil
}

// check validates one response: HTTP success, one payload per spec, the
// same bytes as every earlier serving of that spec, and for a spec's first
// serving, golden statistics.
func (sr *serveRun) check(res opResult) error {
	if res.err != nil {
		return res.err
	}
	var payloads [][]byte
	if res.op.Run {
		if res.code != http.StatusOK {
			return fmt.Errorf("/run %s: HTTP %d: %.200s", res.op.Specs[0], res.code, res.body)
		}
		payloads = [][]byte{res.body}
	} else {
		var err error
		if payloads, err = batchResults(res.code, res.body, res.op.Specs); err != nil {
			return err
		}
	}
	for i, spec := range res.op.Specs {
		sum := sha256.Sum256(payloads[i])
		if prev, ok := sr.served[spec]; ok {
			if prev != sum {
				return fmt.Errorf("%s: served bytes changed between requests", spec)
			}
			continue
		}
		decoded, err := sim.DecodeResult(payloads[i])
		if err != nil {
			return fmt.Errorf("%s: %w", spec, err)
		}
		if err := checkResult(sr.g, wlServe, sr.opts, spec, decoded); err != nil {
			return err
		}
		sr.served[spec] = sum
		if spec.TRH != serveFreshTRH {
			sr.payloads[spec] = payloads[i]
		}
	}
	return nil
}

// checkDirect compares the bytes served for every spec with a direct
// sim.EncodeResult of the same spec simulated outside the service.
func (sr *serveRun) checkDirect() {
	specs := make([]sim.RunSpec, 0, len(sr.served))
	for s := range sr.served {
		specs = append(specs, s)
	}
	suite := sim.NewSuite(sr.opts)
	//lint:allow errdiscard a failed spec's error is returned again by the Run below, which counts it
	_ = suite.Prefetch(specs)
	for _, s := range specs {
		sr.st.attempted++
		res, err := suite.Run(s)
		var data []byte
		if err == nil {
			data, err = sim.EncodeResult(res)
		}
		if err == nil && sha256.Sum256(data) != sr.served[s] {
			err = fmt.Errorf("%s: bytes served differ from a direct EncodeResult", s)
		}
		if err != nil {
			sr.st.fail(err)
		}
	}
}

// codecTimes times sim.DecodeResult and sim.EncodeResult on the store-hit
// payloads served, and returns the medians in µs.
func (sr *serveRun) codecTimes() (decUs, encUs float64) {
	var dec, enc []float64
	for _, p := range sr.payloads {
		t0 := time.Now()
		r, err := sim.DecodeResult(p)
		t1 := time.Now()
		if err != nil {
			continue // already counted as a failure by check
		}
		if _, err := sim.EncodeResult(r); err != nil {
			continue
		}
		dec = append(dec, float64(t1.Sub(t0))/1e3)
		enc = append(enc, float64(time.Since(t1))/1e3)
	}
	return median(dec), median(enc)
}

// runServe runs the serve workload.
func runServe(seed uint64, seconds float64, traced bool) (map[string]float64, map[string]string, *runStats, string, error) {
	st := &runStats{}
	opts := serveOptions()
	var (
		g    golden
		warm string
	)
	defer func() { os.RemoveAll(warm) }()
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if g, err = loadGolden(); err != nil {
			return nil, nil, nil, "", err
		}
		dir, err := serveSetup(opts)
		st.setupS = append(st.setupS, time.Since(t0).Seconds())
		os.RemoveAll(warm)
		warm = dir
		if err != nil {
			return nil, nil, nil, "", err
		}
	}
	sr := &serveRun{g: g, opts: opts, warm: warm, st: st, traced: traced, seed: seed,
		served: map[sim.RunSpec][32]byte{}, payloads: map[sim.RunSpec][]byte{}, cnt: map[string]uint64{}}
	if err := measure(seconds, st, sr.round); err != nil {
		return nil, nil, nil, "", err
	}
	sr.checkDirect()
	if !traced {
		vals, notes := st.endToEnd()
		return vals, notes, st, "", nil
	}

	vals := map[string]float64{}
	decUs, encUs := sr.codecTimes()
	var runSelf, batchSelf []float64
	for _, t := range sr.opsSeen {
		inner := t.innerNs + float64(t.hitSpec)*(decUs+encUs)*1e3 + float64(t.simSpec)*encUs*1e3
		if t.run {
			runSelf = append(runSelf, (t.rttNs-inner)/1e6)
		} else {
			batchSelf = append(batchSelf, (t.rttNs-inner)/1e6)
		}
	}
	vals["server.run.self_ms_p50"] = median(runSelf)
	vals["server.batch.self_ms_p50"] = median(batchSelf)
	vals["store.get_us_p50"] = median(sr.getUs)
	vals["store.put_us_p50"] = median(sr.putUs)
	vals["store.hit_ratio"] = ratio(float64(sr.storeHits), float64(sr.storeHits+sr.storeMisses))
	vals["codec.decode_us"] = decUs
	vals["codec.encode_us"] = encUs
	vals["server.sims_per_spec"] = ratio(float64(sr.cnt["rubixd_sims_fresh"]), float64(sr.cnt["rubixd_requests_total"]))
	vals["server.specs_per_batch"] = ratio(float64(sr.cnt["rubixd_requests_total"]), float64(sr.cnt["rubixd_batches_total"]))
	vals["suite.run_ms_p50"] = median(sr.runMs)

	var fresh []sim.RunSpec
	for _, ops := range serveRound(seed, 0) {
		for _, op := range ops {
			for _, s := range op.Specs {
				if s.TRH == serveFreshTRH && !slices.Contains(fresh, s) {
					fresh = append(fresh, s)
				}
			}
		}
	}
	ls := traceSpecs(g, wlServe, []batch{{Opts: opts, Specs: fresh}}, st)
	ls.metrics(vals)
	vals["sim.shard.wall_ratio"] = shardRatio(opts, fresh[0], st)
	notes := map[string]string{
		"trace.overhead_pct":       fmt.Sprintf("(%d replica runs)", ls.runs),
		"server.run.self_ms_p50":   fmt.Sprintf("(%d requests)", len(runSelf)),
		"server.batch.self_ms_p50": fmt.Sprintf("(%d requests)", len(batchSelf)),
	}
	return vals, notes, st, ls.table(), nil
}
