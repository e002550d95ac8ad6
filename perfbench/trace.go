package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"

	"graphm/internal/core"
	"graphm/internal/engine"
	"graphm/internal/storage"
)

// The traced run times the calls the program makes into each layer's public
// seams, from the benchmark's side of the seam: the service's Backend
// (whose JobDriver spans tile each ticket's runtime), the service's
// TicketLogger, core's EvolveSink and the housekeeping MaybeCheckpoint calls.
// Spans stay in memory until the run ends.

// span is one timed call. Parent is the ID of the span that caused it (0 for
// none) and Ticket the job it belongs to (0 for calls not tied to one job).
type span struct {
	ID     int64
	Parent int64
	Ticket int
	Name   string
	Start  time.Time
	End    time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder collects spans. A nil *recorder records nothing, so the untraced
// run shares every code path with the traced one.
type recorder struct {
	mu    sync.Mutex
	next  int64
	spans []span
}

// add records a finished span.
func (r *recorder) add(name string, parent int64, ticket int, start, end time.Time) {
	r.finish(r.reserve(), name, parent, ticket, start, end)
}

// reserve hands out a span ID ahead of the span's end, so children can name
// a parent that is still open.
func (r *recorder) reserve() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// finish records a span under an ID taken from reserve.
func (r *recorder) finish(id int64, name string, parent int64, ticket int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Ticket: ticket, Name: name, Start: start, End: end})
}

// take returns the spans recorded so far and clears the recorder.
func (r *recorder) take() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// writeSpans dumps spans as tab-separated lines: id, parent, ticket, name,
// start and end in nanoseconds since origin.
func writeSpans(path string, origin time.Time, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tticket\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Ticket, s.Name,
			s.Start.Sub(origin).Nanoseconds(), s.End.Sub(origin).Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedBackend is the daemon's backend with OpenJobSession wrapped. The
// server keeps its durable surface only for a bare *core.System, so this
// wrapper is used only where no store is attached.
type tracedBackend struct {
	*core.System
	rec *recorder
}

func (b tracedBackend) OpenJobSession(j *engine.Job, opts core.SessionOptions) (core.JobDriver, error) {
	start := time.Now()
	d, err := b.System.OpenJobSession(j, opts)
	if err != nil {
		return nil, err
	}
	return &tracedDriver{JobDriver: d, rec: b.rec, ticket: j.ID, root: b.rec.reserve(), opened: start}, nil
}

// tracedDriver spans every JobDriver call of one ticket. The service's drive
// loop calls ProcessAll and Barrier on the partition Sharing returned and
// then calls Sharing again, so the gap from a non-nil Sharing's return to
// the next Sharing call is the job's streaming time for that partition:
// chunk apply plus the chunk lockstep wait ("core.stream").
type tracedDriver struct {
	core.JobDriver
	rec    *recorder
	ticket int
	root   int64
	opened time.Time

	// streamFrom is when the last non-nil Sharing returned; zero when the
	// driver is not between partitions. Only the ticket's driver goroutine
	// touches it.
	streamFrom time.Time
}

func (d *tracedDriver) span(name string, start time.Time) time.Time {
	end := time.Now()
	d.rec.add(name, d.root, d.ticket, start, end)
	return end
}

func (d *tracedDriver) BeginIteration() bool {
	start := time.Now()
	ok := d.JobDriver.BeginIteration()
	d.span("core.begin", start)
	return ok
}

func (d *tracedDriver) Sharing() *core.SharedPartition {
	start := time.Now()
	if !d.streamFrom.IsZero() {
		d.rec.add("core.stream", d.root, d.ticket, d.streamFrom, start)
		d.streamFrom = time.Time{}
	}
	sp := d.JobDriver.Sharing()
	end := d.span("core.sharing", start)
	if sp != nil {
		d.streamFrom = end
	}
	return sp
}

func (d *tracedDriver) EndIteration() {
	start := time.Now()
	d.JobDriver.EndIteration()
	d.span("core.end", start)
}

func (d *tracedDriver) Close() {
	start := time.Now()
	d.JobDriver.Close()
	end := d.span("core.close", start)
	d.rec.finish(d.root, "core.session", 0, d.ticket, d.opened, end)
}

// tracedTicketLog spans the service's durable ticket-log calls.
type tracedTicketLog struct {
	store *storage.Store
	rec   *recorder
}

func (l tracedTicketLog) LogSubmit(id int, tenant, algo string, seed int64) error {
	start := time.Now()
	err := l.store.LogSubmit(id, tenant, algo, seed)
	l.rec.add("service.ticketlog_submit", 0, id, start, time.Now())
	return err
}

func (l tracedTicketLog) LogTerminal(id int, status string) {
	start := time.Now()
	l.store.LogTerminal(id, status)
	l.rec.add("service.ticketlog_terminal", 0, id, start, time.Now())
}

// tracedSink spans each evolve record from its append to its durable commit
// (the WAL group commit and fsync an evolve ack waits for).
type tracedSink struct {
	store *storage.Store
	rec   *recorder
}

func (s tracedSink) AppendEvolve(rec storage.EvolveRecord) (func() error, error) {
	start := time.Now()
	commit, err := s.store.AppendEvolve(rec)
	if err != nil {
		s.rec.add("storage.wal_commit", 0, rec.JobID, start, time.Now())
		return nil, err
	}
	return func() error {
		err := commit()
		s.rec.add("storage.wal_commit", 0, rec.JobID, start, time.Now())
		return err
	}, nil
}
