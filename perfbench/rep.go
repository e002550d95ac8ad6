package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"graphm/internal/graph"
	"graphm/internal/server"
	"graphm/internal/storage"
)

// algos are the seven built-in algorithms the daemon serves.
var algos = []string{"pagerank", "wcc", "bfs", "sssp", "ppr", "labelprop", "kcore"}

const (
	// evolveRate is the mean rate of lane B's open-loop Poisson stream of
	// global edge-add batches, per second. It is set so the checkpoint
	// cadence comes due halfway between two housekeeping ticks: each tick
	// then finds either 2/3 or 4/3 of the cadence's WAL records since the
	// last checkpoint, a one-third margin against Poisson noise of 5-8%
	// (171 or 341 expected records). So every second tick, every 4 s,
	// writes a checkpoint, and whether one is due never hangs on a near tie.
	// At about 2 ms per batch (p50 round trip on a 2-vCPU VM) the stream
	// keeps lane B's single connection about 17% busy, so it stays
	// open-loop.
	// evolveBatch is the batch size.
	evolveRate  = checkpointCadence / (1.5 * float64(housekeepingTick) / float64(time.Second))
	evolveBatch = 16
	// repTimeout bounds one repetition's burst; a burst that has not drained
	// by then is reported as a hang.
	repTimeout = 60 * time.Second
)

// jobRequest is one generated POST /v1/jobs.
type jobRequest struct {
	Algo   string `json:"algo"`
	Seed   int64  `json:"seed"`
	tenant string
}

// plan is every request one repetition sends, built from the workload seed
// and the repetition index alone.
type plan struct {
	jobs   []jobRequest
	evolve *rand.Rand // lane B: inter-arrival gaps and edges, drawn in send order
	numV   int
}

func newPlan(w workload, seed int64, rep int, numV int) plan {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(rep)))
	// Each consecutive block of len(algos) jobs holds every algorithm once,
	// in a seeded order: every burst has the same mix, spread evenly over
	// the burst, and only the order within blocks, the roots and the tenants
	// vary with the seed.
	jobs := make([]jobRequest, w.jobs)
	for b := 0; b < w.jobs; b += len(algos) {
		for i, k := range rng.Perm(len(algos)) {
			if b+i < w.jobs {
				jobs[b+i].Algo = algos[k]
			}
		}
	}
	// Round-robin tenants, enough of them that no tenant queue can reach
	// the per-tenant cap even if the whole burst queued.
	tenants := max(2, (w.jobs+serveQueueCap-1)/serveQueueCap)
	for i := range jobs {
		jobs[i].Seed = rng.Int63() + 1 // zero would ask the daemon to derive one
		jobs[i].tenant = fmt.Sprintf("tenant-%d", i%tenants)
	}
	return plan{jobs: jobs, evolve: rand.New(rand.NewSource(rng.Int63())), numV: numV}
}

// nextEvolve draws lane B's next inter-arrival gap and edge batch.
func (p plan) nextEvolve() (time.Duration, []graph.Edge) {
	gap := time.Duration(p.evolve.ExpFloat64() / evolveRate * float64(time.Second))
	edges := make([]graph.Edge, evolveBatch)
	for i := range edges {
		edges[i] = graph.Edge{
			Src:    graph.VertexID(p.evolve.Intn(p.numV)),
			Dst:    graph.VertexID(p.evolve.Intn(p.numV)),
			Weight: float32(1 + p.evolve.Intn(8)),
		}
	}
	return gap, edges
}

// lane is one load-generator connection: a client whose transport holds at
// most one connection, so requests on a lane are strictly sequential.
type lane struct {
	client *http.Client
	base   string
}

func newLane(base string) *lane {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &lane{client: &http.Client{Transport: tr, Timeout: repTimeout}, base: base}
}

// do sends one request and decodes a 2xx JSON body into out. It returns the
// status code (0 on a transport error).
func (l *lane) do(method, path, tenant string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, l.base+path, rd)
	if err != nil {
		return 0, err
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

func (l *lane) close() { l.client.CloseIdleConnections() }

// laneStats is what one lane sent and how each request went. Times are in
// seconds: late is send time minus due time, rtt send to response, ack due
// time to a successful response.
type laneStats struct {
	sent, failed, non2xx int
	late, rtt, ack       []float64
}

// record accounts one request; it reports whether the answer was want.
func (s *laneStats) record(due, sent, now time.Time, code, want int, err error) bool {
	s.sent++
	s.late = append(s.late, sent.Sub(due).Seconds())
	s.rtt = append(s.rtt, now.Sub(sent).Seconds())
	if err != nil || code != want {
		s.failed++
		if code != 0 {
			s.non2xx++
		}
		return false
	}
	s.ack = append(s.ack, now.Sub(due).Seconds())
	return true
}

// submitBurst is lane A: every job of the burst is due at t0 and sent back
// to back. It returns the lane's stats and the acknowledged ticket IDs.
func submitBurst(a *lane, jobs []jobRequest, t0 time.Time) (laneStats, []int) {
	var st laneStats
	var ids []int
	for _, j := range jobs {
		sent := time.Now()
		var tk ticketJSON
		code, err := a.do("POST", "/v1/jobs", j.tenant, j, &tk)
		if st.record(t0, sent, time.Now(), code, http.StatusAccepted, err) {
			ids = append(ids, tk.ID)
		}
	}
	return st, ids
}

// evolveStream is lane B: the open-loop Poisson stream of edge batches,
// starting at t0, until stop closes. It returns the lane's stats and every
// acknowledged edge.
func (p plan) evolveStream(b *lane, t0 time.Time, stop <-chan struct{}) (laneStats, []graph.Edge) {
	defer b.close()
	var st laneStats
	var acked []graph.Edge
	timer := time.NewTimer(0)
	<-timer.C
	due := t0
	for {
		gap, edges := p.nextEvolve()
		due = due.Add(gap)
		timer.Reset(time.Until(due))
		select {
		case <-stop:
			timer.Stop()
			return st, acked
		case <-timer.C:
		}
		body := struct {
			Edges []edgeJSON `json:"edges"`
		}{Edges: make([]edgeJSON, len(edges))}
		for i, e := range edges {
			body.Edges[i] = edgeJSON{Src: uint32(e.Src), Dst: uint32(e.Dst), Weight: e.Weight}
		}
		sent := time.Now()
		code, err := b.do("POST", "/v1/graph/edges", "", body, nil)
		if st.record(due, sent, time.Now(), code, http.StatusOK, err) {
			acked = append(acked, edges...)
		}
	}
}

// ticketJSON is the part of the daemon's ticket view the benchmark reads.
type ticketJSON struct {
	ID                int     `json:"id"`
	Status            string  `json:"status"`
	QueueWaitSeconds  float64 `json:"queue_wait_seconds"`
	RuntimeSeconds    float64 `json:"runtime_seconds"`
	SimRuntimeSeconds float64 `json:"sim_runtime_seconds"`
	Iterations        uint64  `json:"iterations"`
}

type edgeJSON struct {
	Src    uint32  `json:"src"`
	Dst    uint32  `json:"dst"`
	Weight float32 `json:"weight"`
}

// repResult is one repetition: its figures by metric name, the series
// behind the percentile metrics (pooled across repetitions by fold), its
// operation counts, the checks that failed and, when traced, its spans.
type repResult struct {
	traced    bool
	metrics   map[string]float64
	samples   map[string][]float64
	attempted int
	failed    int
	problems  []string
	spans     []span
}

// problem records a failed check; it counts as a failed operation.
func (r *repResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.failed++
}

// runRep stands up a fresh daemon, drives one burst (and, for a durable
// workload, the evolve stream beside it) over HTTP, checks the outputs and
// returns the repetition's metrics.
func runRep(w workload, seed int64, rep int, traced bool, workDir string) (*repResult, error) {
	var rec *recorder
	if traced {
		rec = &recorder{}
	}
	dataDir := ""
	if w.durable {
		dataDir = filepath.Join(workDir, fmt.Sprintf("data-%d", rep))
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dataDir)
	}
	// Each repetition stands in for a fresh daemon process: start it on a
	// collected heap returned to the OS, with the peak-RSS mark reset.
	debug.FreeOSMemory()
	rssErr := resetPeakRSS()
	p0 := sampleProc()
	start := time.Now()
	d, err := startDaemon(w.dataset, dataDir, seed, rec)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			d.close()
		}
	}()
	p := newPlan(w, seed, rep, d.env.Spec.NumV)
	t0 := time.Now() // every burst job is due now
	r := &repResult{traced: traced, metrics: map[string]float64{}, samples: map[string][]float64{}}
	m := r.metrics
	m["setup_s"] = t0.Sub(start).Seconds()
	if rssErr != nil {
		r.problem("%v", rssErr)
	}

	type evolveResult struct {
		st    laneStats
		acked []graph.Edge
	}
	stop := make(chan struct{})
	evolveDone := make(chan evolveResult, 1)
	if w.durable {
		go func() {
			st, acked := p.evolveStream(newLane(d.base), t0, stop)
			evolveDone <- evolveResult{st, acked}
		}()
	}
	a := newLane(d.base)
	defer a.close()
	burst, ids := submitBurst(a, p.jobs, t0)
	terms, waitErr := d.awaitTerminals(int(d.srv.Service().Snapshot().Submitted), t0.Add(repTimeout))
	if waitErr != nil {
		waitErr = fmt.Errorf("burst did not drain: %w", waitErr)
	} else if w.durable {
		// Lane B runs until the burst has drained and the housekeeping loop
		// has written a checkpoint, so every repetition takes the checkpoint
		// path however short the burst gets.
		select {
		case <-d.hkFirst:
		case <-time.After(time.Until(t0.Add(repTimeout))):
			waitErr = fmt.Errorf("no housekeeping checkpoint by the deadline")
		}
	}
	close(stop)
	var evolve evolveResult
	if w.durable {
		evolve = <-evolveDone
	}
	if waitErr != nil {
		return nil, waitErr
	}
	r.attempted = burst.sent + evolve.st.sent
	r.failed = burst.failed + evolve.st.failed
	// Every request must succeed: a 429, a 503 or a transport error fails
	// the run as well as counting in failed.
	if r.failed > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d of %d requests failed (%d non-2xx: %d of %d submits, %d of %d evolves)",
			r.failed, r.attempted, burst.non2xx+evolve.st.non2xx, burst.failed, burst.sent, evolve.st.failed, evolve.st.sent))
	}

	// Output checks: every acknowledged job ended done with at least one
	// iteration.
	byID := make(map[int]terminal, len(terms))
	var lastTerminal time.Time
	for _, t := range terms {
		byID[t.id] = t
		if t.at.After(lastTerminal) {
			lastTerminal = t.at
		}
	}
	var latency, runtimes, simJob, queueWait []float64
	var work workCounters
	var runtimeSum time.Duration
	for _, id := range ids {
		var tk ticketJSON
		code, err := a.do("GET", fmt.Sprintf("/v1/jobs/%d", id), "", nil, &tk)
		if err != nil || code != http.StatusOK {
			r.problem("GET ticket %d: status %d, %v", id, code, err)
			continue
		}
		t, ok := byID[id]
		if tk.Status != "done" || !ok || !t.done {
			r.problem("ticket %d ended %s, want done", id, tk.Status)
			continue
		}
		if tk.Iterations < 1 {
			r.problem("ticket %d done after %d iterations", id, tk.Iterations)
			continue
		}
		latency = append(latency, t.at.Sub(t0).Seconds())
		runtimes = append(runtimes, tk.RuntimeSeconds)
		simJob = append(simJob, tk.SimRuntimeSeconds)
		queueWait = append(queueWait, tk.QueueWaitSeconds)
		runtimeSum += t.runtime
		work.add(t.work)
	}
	done := len(latency)

	housekeeping := d.stopHousekeeping()
	checkpoints := housekeeping
	var drain server.RecoveryState
	if code, err := a.do("POST", "/v1/drain", "", nil, &drain); err != nil || code != http.StatusOK {
		r.problem("drain: status %d, %v", code, err)
	}
	if drain.Failed != 0 || drain.Error != "" {
		r.problem("drain reports %d failed tickets, error %q", drain.Failed, drain.Error)
	}
	if drain.Completed != uint64(len(ids)) {
		r.problem("drain reports %d completed, want %d acknowledged", drain.Completed, len(ids))
	}

	// Layer counters, read before the store closes.
	stats := d.sys.StatsSnapshot()
	disk, mem := d.env.Disk, d.mem
	var wal storage.WALStats
	var ticketDropped uint64
	if d.store != nil {
		wal = d.store.WALStats()
		ticketDropped = d.store.TicketLogDropped()
		checkpoints++ // the drain's forced checkpoint
	}
	hits, misses := d.cache.TotalHits(), d.cache.TotalMisses()
	p1 := sampleProc()
	if m["peak_rss_mb"], err = peakRSSMB(); err != nil {
		r.problem("%v", err)
	}
	closed = true
	if err := d.close(); err != nil {
		r.problem("shutdown: %v", err)
	}

	// Bypass assertions: the counts that must be zero or bounded on the
	// path this workload is meant to take.
	spec := d.env.Spec
	if !w.durable && wal.Appends != 0 {
		r.problem("%s: %d WAL appends, want 0", w.name, wal.Appends)
	}
	if !w.durable && !spec.OutOfCore && int64(disk.ReadBytes()) > d.env.G.SizeBytes() {
		r.problem("%s: read %d disk bytes, more than one cold read (%d)", w.name, disk.ReadBytes(), d.env.G.SizeBytes())
	}
	if spec.OutOfCore && mem.Evictions() == 0 {
		r.problem("%s: no partition evictions; the out-of-core path was not taken", w.name)
	}
	if w.durable && len(evolve.st.ack) == 0 {
		r.problem("%s: no evolve acknowledged; the WAL path was not taken", w.name)
	}
	if w.durable && wal.Appends < uint64(len(evolve.st.ack)) {
		r.problem("%s: %d WAL appends for %d acknowledged evolves", w.name, wal.Appends, len(evolve.st.ack))
	}
	if w.durable && housekeeping == 0 {
		r.problem("%s: no housekeeping checkpoint; the checkpoint path was not taken", w.name)
	}

	if w.durable {
		size, err := dirBytes(dataDir)
		if err != nil {
			r.problem("size data dir: %v", err)
		}
		liveEdges := d.env.G.NumEdges() + len(evolve.acked)
		m["stored_bytes_per_user_byte"] = float64(size) / float64(graph.EdgeSize*liveEdges)
		r.checkReopen(dataDir, len(ids), d.env.G.NumEdges(), evolve.acked)
	}

	// End-to-end metrics; the percentiles come from the pooled samples.
	m["jobs_per_s"] = ratio(float64(done), lastTerminal.Sub(t0).Seconds())
	m["sim_disk_mb_per_job"] = ratio(float64(disk.ReadBytes())/1e6, float64(done))
	m["sim_llc_miss_rate"] = ratio(float64(misses), float64(hits+misses))
	r.samples["job_latency"] = latency
	r.samples["job_runtime"] = runtimes
	r.samples["sim_job"] = simJob
	r.samples["evolve_ack"] = evolve.st.ack

	// Per-layer metrics.
	r.samples["submit_rtt"] = burst.rtt
	r.samples["evolve_rtt"] = evolve.st.rtt
	r.samples["late"] = append(burst.late, evolve.st.late...)
	m["server.non2xx"] = float64(burst.non2xx + evolve.st.non2xx)

	r.samples["queue_wait"] = queueWait
	m["service.peak_in_flight"] = float64(drain.PeakInFlight)
	m["service.peak_queued"] = float64(drain.PeakQueued)

	m["core.rounds"] = float64(stats.Rounds)
	m["core.shared_loads"] = float64(stats.SharedLoads)
	m["core.suspensions"] = float64(stats.Suspensions)
	m["core.mid_round_joins"] = float64(stats.MidRoundJoins)
	m["core.shared_load_frac"] = ratio(float64(stats.SharedLoads), float64(work.loads))
	m["core.loads_per_disk_read"] = ratio(float64(work.loads), float64(disk.ReadOps()))

	m["engine.scanned_edges"] = float64(work.scanned)
	m["engine.processed_edges"] = float64(work.processed)
	m["engine.useful_edge_frac"] = ratio(float64(work.processed), float64(work.scanned))
	m["engine.iterations"] = float64(work.iterations)
	m["engine.sim_io_frac"] = ratio(float64(work.simIONS), float64(work.simTotalNS))
	m["memsim.llc_hits"] = float64(hits)
	m["memsim.llc_misses"] = float64(misses)

	pd := diffProc(p0, p1)
	m["process.cpu_s_per_job"] = ratio(pd.cpuS, float64(done))
	m["process.cpu_ns_per_scanned_edge"] = ratio(pd.cpuS*1e9, float64(work.scanned))
	m["runtime.idle_cpu_frac"] = ratio(pd.rtIdleCPU, pd.rtTotalCPU)
	m["runtime.gc_cpu_frac"] = ratio(pd.rtGCCPU, pd.rtTotalCPU)
	m["runtime.sched_latency_p99_s"] = pd.schedLatP99S
	m["runtime.mutex_wait_s"] = pd.mutexWaitS
	m["runtime.alloc_mb_per_job"] = ratio(pd.allocBytes/1e6, float64(done))
	m["host.steal_frac"] = pd.stealFrac

	m["storage.disk_read_ops"] = float64(disk.ReadOps())
	m["storage.disk_read_mb"] = float64(disk.ReadBytes()) / 1e6
	m["storage.mem_faults"] = float64(mem.Faults())
	m["storage.mem_rehits"] = float64(mem.Rehits())
	m["storage.mem_evictions"] = float64(mem.Evictions())
	m["storage.mem_peak_mb"] = float64(mem.Peak()) / 1e6
	m["storage.wal_appends"] = float64(wal.Appends)
	m["storage.wal_syncs"] = float64(wal.Syncs)
	m["storage.wal_appends_per_sync"] = ratio(float64(wal.Appends), float64(wal.Syncs))
	m["storage.wal_bytes"] = float64(wal.Bytes)
	m["storage.checkpoints"] = float64(checkpoints)
	m["storage.housekeeping_checkpoints"] = float64(housekeeping)
	m["storage.ticketlog_dropped"] = float64(ticketDropped)
	m["loadgen.sent"] = float64(r.attempted)

	if traced {
		r.spans = rec.take()
		r.spanMetrics(runtimeSum)
	}
	return r, nil
}

// spanMetrics folds a traced repetition's spans into the per-layer metrics:
// the JobDriver spans as shares of the summed ticket runtime, and the
// ticket-log, WAL-commit and checkpoint latencies.
func (r *repResult) spanMetrics(runtimeSum time.Duration) {
	var begin, sharing, stream, end time.Duration
	var checkpoint []float64
	for _, s := range r.spans {
		switch s.Name {
		case "core.begin":
			begin += s.dur()
		case "core.sharing":
			sharing += s.dur()
		case "core.stream":
			stream += s.dur()
		case "core.end", "core.close":
			end += s.dur()
		case "service.ticketlog_submit":
			r.samples["ticketlog_submit"] = append(r.samples["ticketlog_submit"], s.dur().Seconds())
		case "storage.wal_commit":
			r.samples["wal_commit"] = append(r.samples["wal_commit"], s.dur().Seconds())
		case "storage.checkpoint":
			checkpoint = append(checkpoint, s.dur().Seconds())
		}
	}
	m, rt := r.metrics, runtimeSum.Seconds()
	m["core.begin_frac"] = ratio(begin.Seconds(), rt)
	m["core.sharing_frac"] = ratio(sharing.Seconds(), rt)
	m["core.stream_frac"] = ratio(stream.Seconds(), rt)
	m["core.end_frac"] = ratio(end.Seconds(), rt)
	m["core.residual_frac"] = 1 - ratio((begin+sharing+stream+end).Seconds(), rt)
	m["storage.checkpoint_s"] = median(checkpoint)
}

// checkReopen reopens a drained, closed data directory as a restarted
// daemon would and checks that it holds exactly what was acknowledged:
// every acknowledged submit, no pending ticket, and the initial edges plus
// every acknowledged added edge.
func (r *repResult) checkReopen(dir string, acked, initialEdges int, added []graph.Edge) {
	st, rec, err := storage.Open(dir, storage.StoreOptions{})
	if err != nil {
		r.problem("reopen %s: %v", dir, err)
		return
	}
	defer st.Close()
	if rec.Counts.Submitted != uint64(acked) {
		r.problem("reopened ticket log has %d submits, want %d acknowledged", rec.Counts.Submitted, acked)
	}
	if len(rec.Pending) != 0 {
		r.problem("reopened ticket log has %d pending tickets, want 0", len(rec.Pending))
	}
	missing := make(map[graph.Edge]int, len(added))
	for _, e := range added {
		missing[e]++
	}
	total := 0
	present := func(edges []graph.Edge) {
		total += len(edges)
		for _, e := range edges {
			if missing[e] > 0 {
				missing[e]--
			}
		}
	}
	for _, edges := range rec.Partitions {
		present(edges)
	}
	for _, ev := range rec.Evolves {
		switch ev.Op {
		case storage.EvolveAdd:
			present(ev.Edges)
		case storage.EvolveRemove:
			total -= len(ev.Edges)
		}
	}
	if total != initialEdges+len(added) {
		r.problem("reopened store holds %d edges, want %d initial + %d acknowledged", total, initialEdges, len(added))
	}
	lost := 0
	for _, n := range missing {
		lost += n
	}
	if lost != 0 {
		r.problem("reopened store lacks %d acknowledged edges", lost)
	}
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
