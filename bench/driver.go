package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fabriccrdt/internal/workload"
)

// drainAllowance is how long after the open-loop schedule ends a
// transaction may still commit without counting as backlog: ten batch
// timeouts. A system keeping up with the arrival rate drains within it;
// one that fell behind does not.
const drainAllowance = time.Second

// phaseLimit is the hard limit on one phase: past it the phase is reported
// as stuck. Every phase is sized for well under half a minute, and the
// whole run must end within the contract's 180 s.
const phaseLimit = 75 * time.Second

// txRecord is everything the driver knows about one submission.
type txRecord struct {
	txSample
	index   int    // spec index
	channel string // channel it was submitted on
	traceID string // traced runs only
	block   uint64
	err     error
}

// driver submits generated transactions through a network's two
// connections: transaction i goes to connection i mod 2.
type driver struct {
	net  *network
	gen  *workload.IoTGenerator
	base int // first spec index of this run's seed window
	next int // offset of the next unused spec index
}

func newDriver(n *network, seed int64) *driver {
	return &driver{net: n, gen: newGenerator(n.w), base: int(seed) * seedStride}
}

// newGenerator is the generator the peers' chaincode uses: it tells the
// driver each spec index's channel and whether it is hot.
func newGenerator(w workloadSpec) *workload.IoTGenerator {
	return workload.NewIoT(workload.IoTParams{
		ConflictPct: w.ConflictPct,
		Channels:    w.Channels,
		Seed:        chaincodeSeed,
	})
}

// submit runs one transaction end to end — endorse through client.Prepare,
// then the gateway Submit, both on the connection its offset selects — and
// fills in everything of rec but the due and sent times.
func (d *driver) submit(offset int, rec *txRecord) {
	idx := d.base + offset
	sp := d.net.peers[offset%2]
	rec.index = idx
	rec.channel = d.gen.ChannelFor(idx)
	tx, err := sp.clients[rec.channel].Prepare("iot", workload.SpecArgs(idx)...)
	if err != nil {
		rec.err, rec.committed = err, time.Now()
		return
	}
	rec.traceID = tx.TraceID
	ev, err := sp.conn.Submit(tx)
	rec.committed = time.Now()
	if err != nil {
		rec.err = err
		return
	}
	rec.block = ev.BlockNum
	rec.ok = ev.Code.Committed()
	if !rec.ok {
		rec.err = fmt.Errorf("transaction %s (spec %d) committed as %s", tx.ID, idx, ev.Code)
	}
}

// awaitPhase waits for a phase's submissions, reporting the phase as stuck
// (with the children's last output) instead of hanging.
func (d *driver) awaitPhase(phase string, wg *sync.WaitGroup, limit time.Duration, inFlight *atomic.Int64) error {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-timer.C:
		return fmt.Errorf("%s phase stuck: %d transactions still in flight after %v\n%s",
			phase, inFlight.Load(), limit, d.net.ps.tails())
	}
}

// pacedResult is the outcome of the open-loop phase.
type pacedResult struct {
	records    []txRecord
	backlogEnd int // submissions uncommitted drainAllowance after the schedule ended
}

// runPaced is the open-loop phase: n transactions on a fixed schedule of
// rate per second, each started in its own goroutine when it is due, no
// matter how many are still in flight.
func (d *driver) runPaced(n int, rate float64) (pacedResult, error) {
	records := make([]txRecord, n)
	var wg sync.WaitGroup
	var inFlight atomic.Int64
	first := d.next
	d.next += n
	start := time.Now().Add(5 * time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		rec := &records[i]
		rec.due = due
		wg.Add(1)
		inFlight.Add(1)
		go func(offset int) {
			defer wg.Done()
			rec.sent = time.Now()
			d.submit(offset, rec)
			inFlight.Add(-1)
		}(first + i)
	}
	scheduleEnd := time.Now()
	if err := d.awaitPhase("paced", &wg, phaseLimit, &inFlight); err != nil {
		return pacedResult{}, err
	}
	res := pacedResult{records: records}
	for i := range records {
		if records[i].committed.Sub(scheduleEnd) > drainAllowance {
			res.backlogEnd++
		}
	}
	return res, nil
}

// satResult is the outcome of the closed-loop phase.
type satResult struct {
	records []txRecord
	wall    time.Duration // first send → last commit
}

// runSaturation is the closed-loop phase: inFlight workers, half per
// connection, each submitting its connection's next transaction as soon as
// the previous one committed, until n are done.
func (d *driver) runSaturation(n int) (satResult, error) {
	records := make([]txRecord, n)
	var wg sync.WaitGroup
	var busy atomic.Int64
	first := d.next
	d.next += n
	// Connection c carries offsets first+c, first+c+2, …: its workers
	// claim them in order from a shared counter.
	var nextOn [2]atomic.Int64
	start := time.Now()
	for w := 0; w < inFlight; w++ {
		wg.Add(1)
		busy.Add(1)
		go func(c int) {
			defer wg.Done()
			defer busy.Add(-1)
			for {
				i := int(nextOn[c].Add(1)-1)*2 + c
				if i >= n {
					return
				}
				rec := &records[i]
				rec.sent = time.Now()
				rec.due = rec.sent
				d.submit(first+i, rec)
			}
		}(w % 2)
	}
	if err := d.awaitPhase("saturation", &wg, phaseLimit, &busy); err != nil {
		return satResult{}, err
	}
	res := satResult{records: records}
	for i := range records {
		if dur := records[i].committed.Sub(start); dur > res.wall {
			res.wall = dur
		}
	}
	return res, nil
}

// tally folds a phase's records into the run's submission accounting.
type tally struct {
	submitted int
	failed    int
	firstErr  error
	heights   map[string]uint64 // highest committed block per channel
	hot       map[string]int    // hot-key transactions submitted per channel
}

func newTally() *tally {
	return &tally{heights: make(map[string]uint64), hot: make(map[string]int)}
}

func (t *tally) add(gen *workload.IoTGenerator, records []txRecord) {
	for i := range records {
		r := &records[i]
		t.submitted++
		if !r.ok {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = r.err
			}
			continue
		}
		if r.block > t.heights[r.channel] {
			t.heights[r.channel] = r.block
		}
		if gen.Conflicting(r.index) {
			t.hot[r.channel]++
		}
	}
}

// err reports failed submissions. With any, the final heights are unknown
// and the run is already incorrect: it ends here rather than waiting for
// blocks that may never come.
func (t *tally) err() error {
	if t.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d submissions failed, first: %w", t.failed, t.submitted, t.firstErr)
}

func samplesOf(records []txRecord) []txSample {
	out := make([]txSample, len(records))
	for i := range records {
		out[i] = records[i].txSample
	}
	return out
}
