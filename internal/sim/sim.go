package sim

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/tuple"
)

// DefaultCostPerStep is the virtual CPU time charged per operator execution
// when a Sim does not override it. Without a cost model, punctuation
// processing would be free and the periodic-ETS overhead effects of
// Figures 7–8 could not appear.
const DefaultCostPerStep = 20 * tuple.Microsecond

// Stream describes one input stream fed into the simulation.
type Stream struct {
	// Source receives the generated tuples.
	Source *ops.Source
	// Proc generates inter-arrival gaps.
	Proc Process
	// Payload builds the i-th tuple's values; nil produces single-column
	// integer payloads.
	Payload func(i uint64) []tuple.Value
	// ExtTs supplies the application timestamp for externally timestamped
	// streams, given the arrival clock and sequence number; nil uses the
	// arrival clock itself.
	ExtTs func(arrival tuple.Time, i uint64) tuple.Time
	// Start delays the first arrival.
	Start tuple.Time
	// Heartbeat, when positive, injects a periodic ETS into the source
	// every Heartbeat of virtual time (the paper's scenario B).
	Heartbeat tuple.Time

	n uint64
}

// Sim drives one engine over virtual time.
type Sim struct {
	// Engine executes the query graph.
	Engine *exec.Engine
	// CostPerStep is the virtual CPU time charged per operator execution.
	CostPerStep tuple.Time
	// Horizon stops the simulation when the clock reaches it.
	Horizon tuple.Time
	// Warmup, when positive, resets all statistics at that instant so
	// steady-state metrics exclude start-up transients.
	Warmup tuple.Time
	// OnReset callbacks run at the warmup reset (hook for external stats).
	OnReset []func()

	clock   tuple.Time
	events  queue
	streams []*Stream
	idle    map[graph.NodeID]*metrics.IdleAccount
	span    tuple.Time // measured time (post-warmup)

	stepsRun uint64
}

// New returns a simulation over the engine with the default cost model.
func New(engine *exec.Engine, horizon tuple.Time) *Sim {
	return &Sim{
		Engine:      engine,
		CostPerStep: DefaultCostPerStep,
		Horizon:     horizon,
		idle:        make(map[graph.NodeID]*metrics.IdleAccount),
	}
}

// Clock returns the current virtual time. Sink callbacks use it to compute
// latency.
func (s *Sim) Clock() tuple.Time { return s.clock }

// Now is the clock accessor handed to exec.New.
func (s *Sim) Now() tuple.Time { return s.clock }

// AddStream registers a stream and schedules its first arrival (and its
// heartbeat train, if configured).
func (s *Sim) AddStream(st *Stream) {
	if st.Source == nil || st.Proc == nil {
		panic("sim: stream needs Source and Proc")
	}
	s.streams = append(s.streams, st)
	s.events.schedule(st.Start+st.Proc.NextGap(), func(now tuple.Time) { s.arrive(st, now) })
	if st.Heartbeat > 0 {
		s.events.schedule(st.Start+st.Heartbeat, func(now tuple.Time) { s.heartbeat(st, now) })
	}
}

// AddTrace replays a recorded trace into a source: each tuple is ingested
// at its own timestamp (as produced by cmd/wlgen or wrappers.ReadAllCSV).
// Tuples must be timestamp-ordered; the trace drives the virtual clock like
// any other event source.
func (s *Sim) AddTrace(src *ops.Source, trace []*tuple.Tuple) {
	if src == nil {
		panic("sim: AddTrace needs a Source")
	}
	prev := tuple.MinTime
	for _, t := range trace {
		if t.Ts < prev {
			panic(fmt.Sprintf("sim: trace disordered at %v after %v", t.Ts, prev))
		}
		prev = t.Ts
		t := t
		at := t.Ts
		if at < 0 {
			at = 0
		}
		s.events.schedule(at, func(now tuple.Time) { src.Ingest(t, now) })
	}
}

// TrackIdle begins idle-waiting accounting for the given node and returns
// the account (the paper's "% of time spent idle-waiting" for the union).
func (s *Sim) TrackIdle(id graph.NodeID) *metrics.IdleAccount {
	a := &metrics.IdleAccount{}
	s.idle[id] = a
	return a
}

// MeasuredSpan reports the virtual time covered by statistics (horizon minus
// warmup once the run completes).
func (s *Sim) MeasuredSpan() tuple.Time { return s.span }

// StepsRun reports the number of engine steps the simulation executed.
func (s *Sim) StepsRun() uint64 { return s.stepsRun }

func (s *Sim) arrive(st *Stream, now tuple.Time) {
	var vals []tuple.Value
	if st.Payload != nil {
		vals = st.Payload(st.n)
	} else {
		vals = []tuple.Value{tuple.Int(int64(st.n))}
	}
	raw := tuple.NewData(0, vals...)
	if st.Source.TSKind() == tuple.External {
		ts := now
		if st.ExtTs != nil {
			ts = st.ExtTs(now, st.n)
		}
		raw.Ts = ts
	}
	st.n++
	st.Source.Ingest(raw, now)
	s.events.schedule(now+st.Proc.NextGap(), func(t tuple.Time) { s.arrive(st, t) })
}

func (s *Sim) heartbeat(st *Stream, now tuple.Time) {
	st.Source.InjectETS(now)
	s.events.schedule(now+st.Heartbeat, func(t tuple.Time) { s.heartbeat(st, t) })
}

// Run executes the simulation until the horizon. The loop alternates event
// delivery and engine steps: each engine step advances the clock by
// CostPerStep (arrivals landing inside a busy period are delivered before
// the next step); when the engine is quiescent the clock jumps to the next
// event, charging the gap as idle-waiting time to every operator that is
// blocked while holding input tuples.
func (s *Sim) Run() error {
	if s.Horizon <= 0 {
		return fmt.Errorf("sim: horizon must be positive")
	}
	warmupDone := s.Warmup <= 0
	measureStart := s.Warmup
	for s.clock < s.Horizon {
		// Deliver everything due.
		for !s.events.empty() && s.events.nextAt() <= s.clock {
			ev := s.events.pop()
			ev.fire(ev.at)
		}
		if !warmupDone && s.clock >= s.Warmup {
			s.reset()
			warmupDone = true
		}
		if s.Engine.Step() {
			s.stepsRun++
			s.clock += s.CostPerStep
			continue
		}
		// Quiescent: jump to the next event.
		if s.events.empty() {
			break
		}
		next := s.events.nextAt()
		if next > s.Horizon {
			next = s.Horizon
		}
		if delta := next - s.clock; delta > 0 {
			for _, id := range s.Engine.BlockedWithData() {
				if a, ok := s.idle[id]; ok {
					a.AddIdle(delta)
				}
			}
			s.clock = next
		} else {
			// An event at the current instant produced no work
			// (e.g. a heartbeat on a latent stream): pop it to
			// make progress.
			ev := s.events.pop()
			ev.fire(ev.at)
		}
	}
	if s.clock > s.Horizon {
		s.clock = s.Horizon
	}
	s.span = s.clock - measureStart
	for _, a := range s.idle {
		a.AddTotal(s.span)
	}
	return nil
}

func (s *Sim) reset() {
	s.Engine.Queues().Reset()
	for _, a := range s.idle {
		a.Reset()
	}
	for _, fn := range s.OnReset {
		fn()
	}
}

// NewLatencySink builds a sink that records output latency: emission time
// minus timestamp for timestamped streams, emission time minus system-entry
// time for latent streams. Add the returned Latency's Reset to the Sim's
// OnReset list so warm-up samples are discarded.
func NewLatencySink(name string) (*ops.Sink, *metrics.Latency) {
	lat := metrics.NewLatency()
	sink := ops.NewSink(name, func(t *tuple.Tuple, now tuple.Time) {
		ref := t.Ts
		if ref == tuple.MinTime {
			ref = t.Arrived
		}
		lat.Observe(now - ref)
	})
	return sink, lat
}
