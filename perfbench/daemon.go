package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"graphm/internal/bench"
	"graphm/internal/core"
	"graphm/internal/graph"
	"graphm/internal/memsim"
	"graphm/internal/server"
	"graphm/internal/service"
	"graphm/internal/storage"
)

// The settings cmd/graphm-serve ships as flag defaults. The benchmark
// measures that configuration; change these when the defaults change.
const (
	serveCores       = 8  // -cores
	serveMaxInFlight = 8  // -max-inflight
	serveQueueCap    = 64 // -queue
	// housekeepingTick is graphm-serve's MaybeCheckpoint period with -data-dir.
	housekeepingTick = 2 * time.Second
	// checkpointCadence is the WAL record count after which a checkpoint is
	// due: the storage.StoreOptions default graphm-serve runs with.
	checkpointCadence = 256
)

// terminal is what the service's OnTerminal hook saw for one ticket.
type terminal struct {
	id      int
	at      time.Time
	runtime time.Duration
	done    bool
	work    workCounters
}

// workCounters are one job's engine counters, read once the ticket is
// terminal (the service no longer touches the job then).
type workCounters struct {
	scanned, processed, iterations, loads uint64
	simIONS, simTotalNS                   uint64
}

func (w *workCounters) add(o workCounters) {
	w.scanned += o.scanned
	w.processed += o.processed
	w.iterations += o.iterations
	w.loads += o.loads
	w.simIONS += o.simIONS
	w.simTotalNS += o.simTotalNS
}

// daemon is one in-process graphm-serve: the constructors and defaults of
// cmd/graphm-serve, serving on an ephemeral loopback port.
type daemon struct {
	env   *bench.GridEnv
	mem   *storage.Memory
	cache *memsim.Cache
	sys   *core.System
	srv   *server.Server
	store *storage.Store
	rec   *recorder

	hs        *http.Server
	base      string
	serveDone chan error

	hkStop      chan struct{}
	hkDone      chan struct{}
	hkFirst     chan struct{} // closed by housekeeping at its first checkpoint
	checkpoints int           // written by housekeeping; owned by its goroutine until hkDone

	tmu       sync.Mutex
	terminals []terminal
	tsignal   chan struct{}
}

// startDaemon builds a daemon the way graphm-serve does at a cold start:
// dataset generation, grid build, memory pool, LLC model, streaming system,
// (with dataDir) a fresh fsync'd store, HTTP server, listener bind. rec,
// when non-nil, traces the layer seams.
func startDaemon(dataset, dataDir string, seed int64, rec *recorder) (*daemon, error) {
	spec, ok := graph.Spec(dataset)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
	// graph.Dataset caches the preset for the process lifetime; a daemon
	// process generates it once at start, so each set-up calls the generator.
	g, err := graph.GenerateRMAT(graph.DefaultRMAT(spec.Name, spec.NumV, spec.NumE, spec.Seed))
	if err != nil {
		return nil, err
	}
	env, err := bench.NewGridEnvFromGraph(g, spec)
	if err != nil {
		return nil, err
	}
	d := &daemon{env: env, rec: rec, tsignal: make(chan struct{}, 1)}
	cfg := core.DefaultConfig(env.Spec.LLCBytes)
	cfg.Cores = serveCores
	d.mem = storage.NewMemory(env.Disk, env.Spec.MemBudget)
	if d.cache, err = memsim.NewCache(memsim.DefaultConfig(env.Spec.LLCBytes)); err != nil {
		return nil, err
	}
	if d.sys, err = core.NewSystem(env.Grid.AsLayout(), d.mem, d.cache, cfg); err != nil {
		return nil, err
	}
	svcCfg := service.Config{
		MaxInFlight:        serveMaxInFlight,
		MaxQueuedPerTenant: serveQueueCap,
		Seed:               seed,
		OnTerminal:         d.onTerminal,
	}
	var backend server.Backend = d.sys
	if dataDir != "" {
		var recovery *storage.Recovery
		if d.store, recovery, err = storage.Open(dataDir, storage.StoreOptions{}); err != nil {
			return nil, err
		}
		if recovery.HasCheckpoint || recovery.WALRecords > 0 || recovery.Counts.Submitted > 0 {
			d.store.Close()
			return nil, fmt.Errorf("data directory %s is not fresh", dataDir)
		}
		svcCfg.TicketLog = d.store
		if rec != nil {
			svcCfg.TicketLog = tracedTicketLog{store: d.store, rec: rec}
		}
	} else if rec != nil {
		backend = tracedBackend{System: d.sys, rec: rec}
	}
	d.srv = server.NewWithBackend(backend, svcCfg, server.Config{})
	if d.store != nil {
		d.srv.AttachStore(d.store)
		if rec != nil {
			d.sys.SetEvolveSink(tracedSink{store: d.store, rec: rec})
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if d.store != nil {
			d.store.Close()
		}
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv}
	d.serveDone = make(chan error, 1)
	go func() { d.serveDone <- d.hs.Serve(ln) }()
	if d.store != nil {
		d.hkStop, d.hkDone, d.hkFirst = make(chan struct{}), make(chan struct{}), make(chan struct{})
		go d.housekeeping()
	}
	return d, nil
}

// onTerminal is the service's OnTerminal hook. It runs under the service
// mutex, so it only copies what it needs and signals the waiter.
func (d *daemon) onTerminal(t *service.Ticket) {
	m := t.Job().Met
	tm := terminal{
		id:      t.ID,
		at:      time.Now(),
		runtime: t.Runtime(),
		done:    t.Status() == service.StatusDone,
		work: workCounters{
			scanned: m.ScannedEdges, processed: m.ProcessedEdges, iterations: m.Iterations,
			loads: m.PartitionLoads, simIONS: m.SimIONS, simTotalNS: m.SimTotalNS(),
		},
	}
	d.tmu.Lock()
	d.terminals = append(d.terminals, tm)
	d.tmu.Unlock()
	select {
	case d.tsignal <- struct{}{}:
	default:
	}
}

// awaitTerminals blocks until n tickets are terminal or the deadline passes.
func (d *daemon) awaitTerminals(n int, deadline time.Time) ([]terminal, error) {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		d.tmu.Lock()
		got := len(d.terminals)
		d.tmu.Unlock()
		if got >= n {
			d.tmu.Lock()
			defer d.tmu.Unlock()
			return append([]terminal(nil), d.terminals...), nil
		}
		select {
		case <-d.tsignal:
		case <-timer.C:
			return nil, fmt.Errorf("%d of %d tickets terminal at the deadline", got, n)
		}
	}
}

// housekeeping replicates graphm-serve's durable housekeeping loop: every
// tick, probe the durable path while degraded, otherwise write a checkpoint
// if the WAL record cadence says one is due.
func (d *daemon) housekeeping() {
	defer close(d.hkDone)
	tick := time.NewTicker(housekeepingTick)
	defer tick.Stop()
	for {
		select {
		case <-d.hkStop:
			return
		case <-tick.C:
			if degraded, _, _ := d.srv.Degraded(); degraded {
				d.srv.ProbeRecovery()
				continue
			}
			start := time.Now()
			wrote, err := d.srv.MaybeCheckpoint(false)
			if wrote {
				if d.checkpoints == 0 {
					close(d.hkFirst)
				}
				d.checkpoints++
				d.rec.add("storage.checkpoint", 0, 0, start, time.Now())
			}
			_ = err // a failed checkpoint degrades the server, which the run's checks see
		}
	}
}

// stopHousekeeping ends the housekeeping loop (graphm-serve stops it before
// its drain) and returns how many checkpoints it wrote.
func (d *daemon) stopHousekeeping() int {
	if d.hkStop == nil {
		return 0
	}
	close(d.hkStop)
	<-d.hkDone
	d.hkStop = nil
	return d.checkpoints
}

// close shuts the listener and closes the store. Safe after a failed run.
func (d *daemon) close() error {
	d.stopHousekeeping()
	err := d.hs.Close()
	if serr := <-d.serveDone; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if d.store != nil {
		if cerr := d.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
		d.store = nil
	}
	return err
}
