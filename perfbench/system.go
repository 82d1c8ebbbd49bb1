package main

import (
	"fmt"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/tuple"
)

// system is one engine stack assembled the way `streamd -listen` assembles
// it with default flags: DDL and query compiled on a core.Engine, a
// concurrent runtime built with streamd's runtime.Options (on-demand ETS, a
// shared registry, one clock, a span collector; no batching, recycling,
// columnar, sharding or queue-bound options), the session server over the
// engine backend, and one wire-protocol client connection per stream.
type system struct {
	clock func() tuple.Time
	re    *runtime.Engine
	srv   *server.Server
	spans *obs.Collector
	conns []*client.Conn
	strs  []*client.Stream
	srcs  []*ops.Source

	setup setupTimes
}

// setupTimes are the durations (ns) of an assembly's setup steps.
type setupTimes struct{ compile, build, listen, bind int64 }

// total is the time until the first tuple can be sent.
func (t setupTimes) total() int64 { return t.compile + t.build + t.listen + t.bind }

// assemble builds and starts one system. onRow is the query's row callback;
// wrap, when non-nil, interposes on the backend's engine calls (it sees the
// engine, clock and sources, not yet the server or clients). Clients
// heartbeat only on workloads that ask for it (see workload.heartbeats).
func assemble(w *workload, onRow func(t *tuple.Tuple, now tuple.Time), wrap func(*system) server.Ingestor) (*system, error) {
	s := &system{}
	// One clock for engine, server, span collector and load generator.
	start := time.Now()
	s.clock = func() tuple.Time { return tuple.Time(time.Since(start).Microseconds()) }
	mark := start
	since := func() int64 {
		now := time.Now()
		d := now.Sub(mark).Nanoseconds()
		mark = now
		return d
	}

	e := core.NewEngine()
	if _, err := e.ExecuteScript(w.ddl, nil); err != nil {
		return nil, fmt.Errorf("ddl: %w", err)
	}
	reg := metrics.NewRegistry()
	resultsC := reg.Counter("sm_results_total")
	outLat := reg.Reservoir("sm_output_latency_us", 8192)
	if _, err := e.Execute(w.query, func(t *tuple.Tuple, now tuple.Time) {
		resultsC.Inc()
		if d := now - t.Ts; d >= 0 {
			outLat.Observe(int64(d))
		}
		onRow(t, now)
	}); err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	for _, st := range w.streams {
		_, src, err := e.LookupStream(st.name)
		if err != nil {
			return nil, err
		}
		s.srcs = append(s.srcs, src)
	}
	s.setup.compile = since()

	metrics.InstrumentTracer(reg, nil)
	s.spans = obs.New(obs.DefaultRingSize)
	s.spans.SetClock(func() int64 { return int64(s.clock()) })
	s.spans.Instrument(reg)
	re, err := e.BuildRuntime(runtime.Options{
		OnDemandETS: true,
		Metrics:     reg,
		Now:         s.clock,
		Spans:       s.spans,
	})
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	s.re = re
	s.setup.build = since()

	re.Start()
	var ing server.Ingestor = re
	if wrap != nil {
		ing = wrap(s)
	}
	srv, err := server.Listen("127.0.0.1:0", server.Options{
		Backend: server.NewEngineBackend(ing, e.LookupStream),
		Metrics: reg,
		Now:     s.clock,
		Spans:   s.spans,
	})
	if err != nil {
		re.Stop()
		re.Wait()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.srv = srv
	s.setup.listen = since()

	opts := client.Options{HeartbeatEvery: -1}
	if w.heartbeats {
		opts.HeartbeatEvery = 0 // the client's default cadence
	}
	for _, st := range w.streams {
		opts.Name = "perfbench-" + st.name
		c, err := client.Dial(srv.Addr().String(), opts)
		if err != nil {
			s.abort()
			return nil, fmt.Errorf("dial: %w", err)
		}
		s.conns = append(s.conns, c)
		str, err := c.Bind(st.name, tuple.External, client.StreamOptions{})
		if err != nil {
			s.abort()
			return nil, fmt.Errorf("bind: %w", err)
		}
		s.strs = append(s.strs, str)
	}
	s.setup.bind = since()
	return s, nil
}

// finish ends every stream, waits for the graph to drain, and tears the
// stack down. It returns the engine's error, if any.
func (s *system) finish() error {
	var first error
	for _, str := range s.strs {
		if err := str.CloseSend(); err != nil && first == nil {
			first = fmt.Errorf("close send: %w", err)
		}
	}
	if err := s.wait(); err != nil && first == nil {
		first = err
	}
	s.close()
	return first
}

// wait blocks until the graph has drained (every stream ended), giving up
// after a minute so a wedged engine fails the run instead of hanging it.
func (s *system) wait() error {
	done := make(chan error, 1)
	go func() { done <- s.re.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Minute):
		s.re.Stop()
		<-done
		return fmt.Errorf("engine did not drain within a minute")
	}
}

// close releases the connections and the listener.
func (s *system) close() {
	for _, c := range s.conns {
		c.Close()
	}
	s.srv.Close()
}

// abort tears down a partially assembled system.
func (s *system) abort() {
	s.close()
	s.re.Stop()
	s.re.Wait()
}
