// Observability plumbing shared by every role (and the in-process
// benchmark): -metrics-addr serves /metrics, /healthz, /readyz and
// /debug/pprof; -trace-out enables transaction tracing and dumps a Chrome
// trace-event JSON file on shutdown.

package main

import (
	"fmt"
	"os"

	"fabriccrdt/internal/obs"
)

// obsRuntime is one process's observability state: the optional
// metrics/pprof server and the optional trace collector.
type obsRuntime struct {
	srv      *obs.Server
	tracer   *obs.Tracer
	traceOut string
}

// startObs wires the observability flags for one role. Call it BEFORE
// serving traffic: tracing must be enabled before the first transaction or
// its spans are silently dropped. The returned runtime is nil-safe.
func startObs(process, metricsAddr, traceOut string, regs ...*obs.Registry) (*obsRuntime, error) {
	rt := &obsRuntime{traceOut: traceOut}
	if traceOut != "" {
		rt.tracer = obs.EnableTracing(process)
	}
	if metricsAddr != "" {
		rt.srv = obs.NewServer(regs...)
		addr, err := rt.srv.Listen(metricsAddr)
		if err != nil {
			return nil, fmt.Errorf("metrics listener on %s: %w", metricsAddr, err)
		}
		fmt.Printf("fabricnet: %s metrics on %s\n", process, addr)
	}
	return rt, nil
}

// setReady flips /readyz to 200 — call once the role has resumed every
// channel and is serving.
func (rt *obsRuntime) setReady() {
	if rt != nil && rt.srv != nil {
		rt.srv.SetReady()
	}
}

// shutdown dumps the trace file (when tracing) and stops the metrics
// server. Call after the commit/deliver plumbing has drained so the last
// spans are recorded.
func (rt *obsRuntime) shutdown() {
	if rt == nil {
		return
	}
	if rt.tracer != nil && rt.traceOut != "" {
		if err := rt.tracer.WriteFile(rt.traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "fabricnet: writing trace file: %v\n", err)
		} else {
			fmt.Printf("fabricnet: wrote trace to %s\n", rt.traceOut)
		}
	}
	if rt.srv != nil {
		rt.srv.Close()
	}
}
