package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/pool"
	"repro/internal/runner"
)

const (
	// pollInterval is the fixed gap between polls of a written job.
	pollInterval = 2 * time.Millisecond

	// writeInterval spaces the writes: write k is due writeInterval*k
	// after the loop starts, on connection k mod 2, which makes it its
	// next op once due.  Every other op is a read of a restored result.
	// The trickle does not depend on how fast reads go, so a run makes
	// the same writes whatever the host's speed.
	writeInterval = 100 * time.Millisecond

	// writeMeasure is the measured-request budget of a written job:
	// small, so a write costs mostly HTTP, pool set-up and store work.
	writeMeasure = 40

	// digestWrites is how many of the default seed's writes have a
	// committed digest; a run makes far fewer.
	digestWrites = 2000

	// replayWrites is how many of a traced run's writes are replayed
	// in-process for the pool and kernel timings.
	replayWrites = 24
)

// nodeNames are the two cluster members' ring identities; ownership
// of an ID depends only on these names.
var nodeNames = []string{"n0", "n1"}

// fixtureSpecs are the jobs in the pre-populated store: exact jobs
// with their default timeline, so both the result and the timeline of
// each can be read back.  The fixture does not depend on the seed.
func fixtureSpecs() []runner.JobSpec {
	var out []runner.JobSpec
	for _, w := range []string{"memcached", "mysql", "plugin-server", "jit"} {
		for _, c := range []runner.ConfigKind{runner.Base, runner.Enhanced} {
			for seed := uint64(1); seed <= 8; seed++ {
				out = append(out, runner.JobSpec{Workload: w, Config: c, Seed: seed, Measure: 100})
			}
		}
	}
	return out
}

// writeSpec is the n-th write of a run: plugin-server and jit in
// turn, under base and enhanced in turn, with a job seed made from the
// run's seed.  A churned plugin host is dynamically linked, so writes
// use base or enhanced: the static and patched configurations of
// plugin-server and jit fail at run time (see NOTES.md).  Job seeds
// start far above the fixture's, so every write is a new job.
func writeSpec(seed uint64, n int) runner.JobSpec {
	return runner.JobSpec{
		Workload: []string{"plugin-server", "jit"}[n%2],
		Config:   []runner.ConfigKind{runner.Base, runner.Enhanced}[n/2%2],
		Seed:     1<<40 + seed<<20 + uint64(n),
		Measure:  writeMeasure,
	}
}

// fixtureEntry is one stored job and the response bodies recorded
// when it was computed.
type fixtureEntry struct {
	ID       string `json:"id"`
	Job      string `json:"job"`
	Timeline string `json:"timeline"`
}

type fixture struct {
	dir     string // holds n0/ and n1/ store directories
	entries []fixtureEntry
}

// loadFixture returns the store fixture for this dlsimd binary,
// building it on first use.  It is keyed by the binary's hash, so a
// changed program gets a fresh fixture, and built under a temporary
// name so an interrupted build is never reused.
func loadFixture(ctx context.Context, cfg *config, g *gate) (*fixture, error) {
	sum, err := fileHash(cfg.dlsimd)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.work, "fixture-"+sum[:16])
	if b, err := os.ReadFile(filepath.Join(dir, "expected.json")); err == nil {
		fx := &fixture{dir: dir}
		if err := json.Unmarshal(b, &fx.entries); err != nil {
			return nil, fmt.Errorf("reading fixture: %w", err)
		}
		return fx, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "dlbench: building the restart-mix store fixture")
	nodes, err := startCluster(cfg, tmp)
	if err != nil {
		return nil, err
	}
	entries, err := populate(ctx, nodes, g)
	if serr := stopAll(nodes); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(entries)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "expected.json"), b, 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, err
	}
	return &fixture{dir: dir, entries: entries}, nil
}

// populate computes the fixture jobs on the cluster and records each
// result and timeline body.
func populate(ctx context.Context, nodes []*node, g *gate) ([]fixtureEntry, error) {
	c := &http.Client{Timeout: time.Minute}
	var entries []fixtureEntry
	for i, spec := range fixtureSpecs() {
		id, _, err := submit(c, nodes[i%2].url, spec)
		if err != nil {
			return nil, err
		}
		entries = append(entries, fixtureEntry{ID: id})
	}
	for i := range entries {
		e := &entries[i]
		body, st, _, err := pollDone(ctx, c, nodes[0].url, e.ID)
		if err != nil {
			return nil, err
		}
		if reason := g.check(st.check()); reason != "" {
			return nil, fmt.Errorf("fixture job %s: %s", e.ID, reason)
		}
		e.Job = string(body)
		tl, code, err := get(c, nodes[0].url+"/v1/jobs/"+e.ID+"/timeline?format=csv")
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("fixture timeline %s: status %d: %v", e.ID, code, err)
		}
		e.Timeline = string(tl)
	}
	return entries, nil
}

func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// node is one dlsimd process.
type node struct {
	name, url string
	cmd       *exec.Cmd
}

// startCluster starts a two-node loopback cluster, one worker each,
// with stores in base/n0 and base/n1, and returns once both answer
// /readyz with 200.
func startCluster(cfg *config, base string) ([]*node, error) {
	var peers []string
	var nodes []*node
	for _, name := range nodeNames {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		nodes = append(nodes, &node{name: name, url: "http://" + addr})
		peers = append(peers, name+"=http://"+addr)
	}
	for _, n := range nodes {
		n.cmd = exec.Command(cfg.dlsimd,
			"-addr", strings.TrimPrefix(n.url, "http://"),
			"-workers", "1",
			"-store-dir", filepath.Join(base, n.name),
			"-cluster-self", n.name,
			"-cluster-peers", strings.Join(peers, ","))
		// The node dies with the benchmark if the benchmark is killed.
		n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := n.cmd.Start(); err != nil {
			stopAll(nodes)
			return nil, fmt.Errorf("starting dlsimd: %w", err)
		}
	}
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for _, n := range nodes {
		for {
			_, code, err := get(c, n.url+"/readyz")
			if err == nil && code == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				stopAll(nodes)
				return nil, fmt.Errorf("dlsimd %s not ready: status %d: %v", n.name, code, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nodes, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop asks the node to drain and exit, killing it if it has not
// exited after ten seconds, and waits for it.  Stopping a stopped node
// does nothing.
func (n *node) stop() error {
	if n.cmd == nil || n.cmd.Process == nil {
		return nil
	}
	defer func() { n.cmd = nil }()
	done := make(chan error, 1)
	go func() { done <- n.cmd.Wait() }()
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		n.cmd.Process.Kill()
		<-done
		return fmt.Errorf("signalling dlsimd %s: %w", n.name, err)
	}
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		n.cmd.Process.Kill()
		<-done
		return fmt.Errorf("dlsimd %s did not exit on SIGTERM", n.name)
	}
}

func stopAll(nodes []*node) error {
	var errs []error
	for _, n := range nodes {
		if err := n.stop(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// get fetches url and returns the body and status.
func get(c *http.Client, url string) ([]byte, int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// submit posts a job and returns its ID.
func submit(c *http.Client, base string, spec runner.JobSpec) (string, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", 0, err
	}
	resp, err := c.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return "", resp.StatusCode, fmt.Errorf("POST /v1/jobs: status %d: %s", resp.StatusCode, b)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return "", resp.StatusCode, err
	}
	return out.ID, resp.StatusCode, nil
}

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads.
type jobStatus struct {
	State  string         `json:"state"`
	Error  string         `json:"error"`
	Spec   runner.JobSpec `json:"spec"`
	Result *struct {
		WallMS float64 `json:"wall_ms"`
		counterFields
		Classes map[string]struct {
			N int `json:"n"`
		} `json:"classes"`
	} `json:"result"`
}

func (st *jobStatus) check() jobCheck {
	n := 0
	for _, c := range st.Result.Classes {
		n += c.N
	}
	return jobCheck{spec: st.Spec, counters: st.Result.counterFields, samples: n}
}

// pollDone polls a job every pollInterval until it is done and
// returns the final body, its decoded status and the number of polls.
func pollDone(ctx context.Context, c *http.Client, base, id string) ([]byte, *jobStatus, int, error) {
	deadline := time.Now().Add(2 * time.Minute)
	for polls := 1; ; polls++ {
		time.Sleep(pollInterval)
		b, code, err := get(c, base+"/v1/jobs/"+id)
		if err != nil || code != http.StatusOK {
			return nil, nil, polls, fmt.Errorf("polling %s: status %d: %v", id, code, err)
		}
		var st jobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			return nil, nil, polls, err
		}
		switch {
		case st.State == "done" && st.Result != nil:
			return b, &st, polls, nil
		case st.State == "failed":
			return nil, nil, polls, fmt.Errorf("job %s failed: %s", id, st.Error)
		case ctx.Err() != nil || time.Now().After(deadline):
			return nil, nil, polls, fmt.Errorf("job %s not done in time", id)
		}
	}
}

// opKind classifies a restart-mix op.
type opKind int

const (
	readJob opKind = iota
	readTimeline
	write
)

// opRecord is one completed or failed restart-mix op.
type opRecord struct {
	kind      opKind
	done      time.Duration // completion, from the start of the loop
	latency   time.Duration
	ok        bool
	forwarded bool // a read sent to the node that does not own the ID
	bytes     int
	submit    time.Duration // writes: the POST alone
	polls     int
	wallMS    float64 // writes: the job's execution time as the server reports it
	instrs    uint64
	spec      runner.JobSpec
	counters  counterFields
	non2xx    bool
}

// restartRun is the outcome of one restart-mix run.
type restartRun struct {
	ops     []opRecord
	wall    time.Duration
	setups  []float64
	peakRSS float64 // summed over the nodes
	stats   []nodeStats
	fixture *fixture
}

// nodeStats is the part of GET /v1/stats the benchmark reads.
type nodeStats struct {
	runner.Stats
	Pool    pool.Stats     `json:"pool"`
	Cluster *cluster.Stats `json:"cluster"`
}

// runRestart runs restart-mix: restart the cluster on a fresh copy of
// the fixture (several times, for the set-up median), then drive it
// with one client over two connections in a closed loop.
func runRestart(ctx context.Context, cfg *config, g *gate, tr *tracer) (*restartRun, error) {
	fx, err := loadFixture(ctx, cfg, g)
	if err != nil {
		return nil, err
	}
	run := &restartRun{fixture: fx}
	var nodes []*node
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(cfg.tmp, fmt.Sprintf("cluster-%d", i))
		for _, name := range nodeNames {
			if _, err := copyDir(filepath.Join(fx.dir, name), filepath.Join(dir, name)); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		nodes, err = startCluster(cfg, dir)
		if err != nil {
			return nil, err
		}
		run.setups = append(run.setups, time.Since(t).Seconds())
		if i < setupReps-1 {
			if err := stopAll(nodes); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	defer stopAll(nodes)

	owners, err := owners(nodes, fx)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	deadline := time.Now().Add(cfg.seconds)
	start := time.Now()
	var wg sync.WaitGroup
	for conn := 0; conn < cfg.workers; conn++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &client{
				c: &http.Client{Transport: &http.Transport{
					MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
				}, Timeout: time.Minute},
				node: nodes[conn%len(nodes)],
				rng:  rand.New(rand.NewPCG(cfg.seed, uint64(conn))),
				fx:   fx, owners: owners, g: g, tr: tr, seed: cfg.seed,
			}
			defer cl.c.CloseIdleConnections()
			var recs []opRecord
			for k := conn; time.Now().Before(deadline) && ctx.Err() == nil; {
				if time.Since(start) >= time.Duration(k)*writeInterval {
					o := cl.write(ctx, k)
					o.done = time.Since(start)
					recs = append(recs, o)
					k += cfg.workers
					continue
				}
				o := cl.read()
				o.done = time.Since(start)
				recs = append(recs, o)
			}
			mu.Lock()
			run.ops = append(run.ops, recs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	run.wall = time.Since(start)

	c := &http.Client{Timeout: 10 * time.Second}
	for _, n := range nodes {
		run.peakRSS += peakRSSMB(n.cmd.Process.Pid)
		b, code, err := get(c, n.url+"/v1/stats")
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("reading %s stats: status %d: %v", n.name, code, err)
		}
		var st nodeStats
		if err := json.Unmarshal(b, &st); err != nil {
			return nil, err
		}
		run.stats = append(run.stats, st)
	}
	return run, stopAll(nodes)
}

// owners maps every fixture ID to its owning node, by the cluster's
// own ring.
func owners(nodes []*node, fx *fixture) (map[string]string, error) {
	var peers []cluster.Peer
	for _, n := range nodes {
		peers = append(peers, cluster.Peer{Name: n.name, URL: n.url})
	}
	cl, err := cluster.New(cluster.Options{Self: nodes[0].name, Peers: peers, ProbeInterval: time.Hour})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	out := map[string]string{}
	for _, e := range fx.entries {
		out[e.ID] = cl.Owner(e.ID)
	}
	return out, nil
}

// client is one connection's closed loop.
type client struct {
	c      *http.Client
	node   *node
	rng    *rand.Rand
	fx     *fixture
	owners map[string]string
	g      *gate
	tr     *tracer
	seed   uint64
}

// normalizeCacheHit blanks the one field a restored read may change.
func normalizeCacheHit(b []byte) []byte {
	return bytes.Replace(b, []byte(`"cache_hit": true`), []byte(`"cache_hit": false`), 1)
}

// read fetches a seeded choice of fixture result or timeline and
// compares it with the body recorded when it was computed.
func (cl *client) read() opRecord {
	e := cl.fx.entries[cl.rng.IntN(len(cl.fx.entries))]
	rec := opRecord{kind: readJob, forwarded: cl.owners[e.ID] != cl.node.name}
	url, want, name := cl.node.url+"/v1/jobs/"+e.ID, e.Job, "http.get"
	if cl.rng.IntN(2) == 1 {
		rec.kind = readTimeline
		url, want, name = url+"/timeline?format=csv", e.Timeline, "http.timeline"
	}
	t := time.Now()
	root := cl.tr.begin("op.read", e.ID, -1)
	sp := cl.tr.begin(name, e.ID, root)
	b, code, err := get(cl.c, url)
	cl.tr.end(sp)
	cl.tr.end(root)
	rec.latency = time.Since(t)
	rec.bytes = len(b)
	switch {
	case err != nil:
		cl.g.mismatch(fmt.Sprintf("GET %s: %v", url, err))
	case code != http.StatusOK:
		rec.non2xx = true
		cl.g.mismatch(fmt.Sprintf("GET %s: status %d", url, code))
	case rec.kind == readJob && !bytes.Equal(normalizeCacheHit(b), normalizeCacheHit([]byte(want))):
		cl.g.mismatch(fmt.Sprintf("GET %s: restored body differs from the recorded one", url))
	case rec.kind == readTimeline && string(b) != want:
		cl.g.mismatch(fmt.Sprintf("GET %s: restored timeline differs from the recorded one", url))
	default:
		rec.ok = true
	}
	return rec
}

// write submits the n-th write and polls it to done.
func (cl *client) write(ctx context.Context, n int) opRecord {
	spec := writeSpec(cl.seed, n)
	rec := opRecord{kind: write, spec: spec}
	t := time.Now()
	root := cl.tr.begin("op.write", "", -1)
	sp := cl.tr.begin("http.submit", "", root)
	id, code, err := submit(cl.c, cl.node.url, spec)
	cl.tr.end(sp)
	rec.submit = time.Since(t)
	if err != nil {
		rec.non2xx = code != 0
		cl.tr.end(root)
		rec.latency = time.Since(t)
		cl.g.mismatch(fmt.Sprintf("write %d: %v", n, err))
		return rec
	}
	sp = cl.tr.begin("http.poll", id, root)
	_, st, polls, err := pollDone(ctx, cl.c, cl.node.url, id)
	cl.tr.end(sp)
	cl.tr.end(root)
	rec.latency = time.Since(t)
	rec.polls = polls
	if err != nil {
		cl.g.mismatch(fmt.Sprintf("write %d: %v", n, err))
		return rec
	}
	rec.wallMS = st.Result.WallMS
	rec.instrs = st.Result.Instructions
	rec.spec = st.Spec
	rec.counters = st.Result.counterFields
	rec.ok = cl.g.check(st.check()) == ""
	return rec
}

// window is the span restart-mix splits its loop into.  Throughput,
// median and p90 latency are taken per whole window and the median
// over windows reported, so a few seconds of host stall move a run's
// figures less than they would move its pooled ones.
const window = time.Second

// e2e reports restart-mix's end-to-end metrics.
func (run *restartRun) e2e() map[string]float64 {
	var wlat []float64
	var instrs float64
	perWindow := make([][]float64, int(run.wall/window)) // latencies of ops done in each whole window
	for _, o := range run.ops {
		ms := float64(o.latency) / 1e6
		if !o.ok {
			ms = failedLatencyMS
		}
		if w := int(o.done / window); w < len(perWindow) {
			perWindow[w] = append(perWindow[w], ms)
		}
		if o.kind == write {
			wlat = append(wlat, ms)
			instrs += float64(o.instrs)
		}
	}
	var rates, medians, p90s []float64
	for _, lat := range perWindow {
		ok := 0
		for _, ms := range lat {
			if ms < failedLatencyMS {
				ok++
			}
		}
		rates = append(rates, float64(ok)/window.Seconds())
		medians = append(medians, median(lat))
		p90s = append(p90s, quantile(lat, 0.9))
	}
	return map[string]float64{
		"setup_s":          median(run.setups),
		"ops_per_s":        median(rates),
		"latency_ms":       median(medians),
		"latency_p90_ms":   median(p90s),
		"write_latency_ms": median(wlat),
		"sim_mips":         instrs / run.wall.Seconds() / 1e6,
		"peak_rss_mb":      run.peakRSS,
	}
}

// layers reports the per-layer metrics the client loop and the nodes'
// /v1/stats yield.
func (run *restartRun) layers(workers int) map[string]float64 {
	var gets, tls, local, remote, submits, queue, exec []float64
	var polls, writes, bytes, reads, forwarded, non2xx, busy float64
	for _, o := range run.ops {
		if o.non2xx {
			non2xx++
		}
		if !o.ok {
			continue
		}
		ms := float64(o.latency) / 1e6
		switch o.kind {
		case readJob, readTimeline:
			reads++
			bytes += float64(o.bytes)
			if o.forwarded {
				forwarded++
			}
			if o.kind == readTimeline {
				tls = append(tls, ms)
				continue
			}
			gets = append(gets, ms)
			if o.forwarded {
				remote = append(remote, ms)
			} else {
				local = append(local, ms)
			}
		case write:
			writes++
			polls += float64(o.polls)
			submits = append(submits, float64(o.submit)/1e6)
			exec = append(exec, o.wallMS)
			queue = append(queue, ms-o.wallMS)
			busy += o.wallMS
		}
	}
	m := map[string]float64{
		"http.get_ms":             median(gets),
		"http.timeline_ms":        median(tls),
		"http.submit_ms":          median(submits),
		"http.polls_per_write":    ratio(polls, writes),
		"http.resp_kb":            ratio(bytes/1024, reads),
		"http.non2xx":             non2xx,
		"cluster.hop_ms":          median(remote) - median(local),
		"cluster.forwarded_share": ratio(forwarded, reads),
		"runner.exec_ms":          median(exec),
		"runner.queue_wait_ms":    median(queue),
		"runner.busy_share":       ratio(busy, run.wall.Seconds()*1e3*float64(workers)),
	}
	var hits, subs, imgHits, imgMisses, shared, failovers float64
	for _, st := range run.stats {
		hits += float64(st.CacheHits + st.Deduped)
		subs += float64(st.CacheHits + st.Deduped + st.CacheMisses)
		m["runner.retries"] += float64(st.Retries)
		m["runner.failed"] += float64(st.Failed)
		imgHits += float64(st.Pool.ImageHits)
		imgMisses += float64(st.Pool.ImageMisses)
		shared += float64(st.Pool.ImageBytes)
		if st.Cluster != nil {
			failovers += float64(st.Cluster.Failovers)
		}
	}
	m["runner.cache_hit_share"] = ratio(hits, subs)
	m["pool.image_hit_share"] = ratio(imgHits, imgHits+imgMisses)
	m["pool.shared_mb"] = shared / (1 << 20)
	m["cluster.failovers"] = failovers
	return m
}

// replaySpecs returns the first completed writes' specs and the
// counters the service reported for them.
func (run *restartRun) replaySpecs(n int) ([]runner.JobSpec, map[string]counterFields) {
	var specs []runner.JobSpec
	want := map[string]counterFields{}
	for _, o := range run.ops {
		if o.kind != write || !o.ok || len(specs) == n {
			continue
		}
		specs = append(specs, o.spec)
		key, _ := o.spec.Key()
		want[key] = o.counters
	}
	return specs, want
}
