package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"fabriccrdt/internal/obs"
)

// Span names the program records (internal/obs call sites).
const (
	spanPrepare = "client.prepare" // driver process: proposal → endorsed envelope
	spanEndorse = "peer.endorse"   // peer: chaincode simulation + signature
	spanGateway = "gateway.submit" // gateway peer: broadcast → own commit event
	spanOrder   = "orderer.order"  // orderer: accepted → block cut (time in batch)
	spanCommit  = "peer.commit"    // peer: finalize entry → commit event
)

// interval is a span's extent on the shared wall clock: every process runs
// on this host, so their timestamps compare.
type interval struct{ start, end time.Time }

func spanInterval(s obs.Span) interval { return interval{s.Start, s.Start.Add(s.Dur)} }

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the parent and overlapping children count once.
func selfTime(parent interval, children ...interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	covered := time.Duration(0)
	var cursor time.Time
	for _, c := range clipped {
		if c.start.After(cursor) {
			cursor = c.start
		}
		if c.end.After(cursor) {
			covered += c.end.Sub(cursor)
			cursor = c.end
		}
	}
	return parent.end.Sub(parent.start) - covered
}

// driverSpan is the driver's own span of one traced transaction: due time
// to commit event.
type driverSpan struct {
	due, committed time.Time
}

// txBreakdown is where one transaction's latency went. The six parts and
// unaccounted sum to total.
type txBreakdown struct {
	total       time.Duration // driver: due → commit event
	prepareSelf time.Duration // client.prepare minus the endorsement inside it
	endorse     time.Duration
	order       time.Duration
	deliver     time.Duration // orderer.order end → peer.commit start on the gateway peer
	commit      time.Duration
	gatewaySelf time.Duration // gateway.submit minus order, deliver and commit
	unaccounted time.Duration // total minus everything above
}

// joinTraces joins the processes' spans with the driver's on trace ID.
// Traces missing a span (or unknown to the driver) are counted, not joined.
func joinTraces(spans []obs.Span, driver map[string]driverSpan) (rows []txBreakdown, incomplete int) {
	byTrace := make(map[string][]obs.Span)
	for _, s := range spans {
		if s.TraceID != "" {
			byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
		}
	}
	ids := make([]string, 0, len(driver))
	for id := range driver {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ds := driver[id]
		named := make(map[string]obs.Span)
		var commits []obs.Span
		for _, s := range byTrace[id] {
			if s.Name == spanCommit {
				commits = append(commits, s) // one per committing peer
			} else {
				named[s.Name] = s
			}
		}
		gw, ok := named[spanGateway]
		if ok {
			ok = false
			for _, c := range commits {
				if c.Process == gw.Process {
					named[spanCommit], ok = c, true
				}
			}
		}
		for _, name := range []string{spanPrepare, spanEndorse, spanOrder} {
			if _, have := named[name]; !have {
				ok = false
			}
		}
		if !ok {
			incomplete++
			continue
		}
		prep, end := spanInterval(named[spanPrepare]), spanInterval(named[spanEndorse])
		order, commit := spanInterval(named[spanOrder]), spanInterval(named[spanCommit])
		deliver := interval{order.end, commit.start}
		b := txBreakdown{
			total:       ds.committed.Sub(ds.due),
			prepareSelf: selfTime(prep, end),
			endorse:     end.end.Sub(end.start),
			order:       order.end.Sub(order.start),
			commit:      commit.end.Sub(commit.start),
			gatewaySelf: selfTime(spanInterval(gw), order, deliver, commit),
		}
		if deliver.end.After(deliver.start) {
			b.deliver = deliver.end.Sub(deliver.start)
		}
		b.unaccounted = b.total - b.prepareSelf - b.endorse - b.order - b.deliver - b.commit - b.gatewaySelf
		rows = append(rows, b)
	}
	return rows, incomplete
}

// medianOf is the median of one column of the breakdowns, in ms.
func medianOf(rows []txBreakdown, col func(txBreakdown) time.Duration) float64 {
	vals := make([]float64, len(rows))
	for i, r := range rows {
		vals[i] = ms(col(r))
	}
	return median(vals)
}

// readTraceFile parses one process's -trace-out dump.
func readTraceFile(path string) ([]obs.Span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading trace file: %w", err)
	}
	return obs.ParseChromeTrace(data)
}
