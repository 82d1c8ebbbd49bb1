// Observability for the simulated (single-threaded) engine. The exec engine
// is driver-clocked, so instruments are plain registry atomics updated from
// the one scheduling thread; GaugeFunc collectors read buffers directly,
// which is safe because nothing mutates the graph while a driver is between
// Step calls (the only time a sim scrape makes sense).
package exec

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/ops"
)

// execObs holds the engine-level and per-node instruments created by
// InstrumentInto. nodeSteps is indexed by graph.NodeID.
type execObs struct {
	steps      *metrics.Counter64
	ets        *metrics.Counter64
	queueTotal *metrics.Gauge64
	queuePeak  *metrics.Gauge64
	nodeSteps  []*metrics.Counter64
}

// InstrumentInto registers the engine's instruments in reg under sm_sim_*
// names and keeps them updated from the scheduling loop. Call once, before
// the first Step.
func (e *Engine) InstrumentInto(reg *metrics.Registry) {
	o := &execObs{
		steps:      reg.Counter("sm_sim_steps_total"),
		ets:        reg.Counter("sm_sim_ets_injected_total"),
		queueTotal: reg.Gauge("sm_sim_queue_total"),
		queuePeak:  reg.Gauge("sm_sim_queue_peak"),
		nodeSteps:  make([]*metrics.Counter64, e.g.Len()),
	}
	for _, n := range e.g.Nodes() {
		n := n
		lbl := fmt.Sprintf("{node=%q,id=%q}", n.Op.Name(), fmt.Sprint(n.ID))
		o.nodeSteps[n.ID] = reg.Counter("sm_sim_node_steps_total" + lbl)
		reg.GaugeFunc("sm_sim_node_buffered"+lbl, func() int64 {
			total := 0
			for _, q := range n.In {
				total += q.Len()
			}
			if s := n.Source(); s != nil {
				total += s.Inbox().Len()
			}
			return int64(total)
		})
	}
	e.obs = o
}

// SetTracer attaches tr to the engine; ETS injections emit EvETSGen events.
// A nil tracer (the default) costs one pointer check per injection.
func (e *Engine) SetTracer(tr *metrics.Tracer) { e.trace = tr }

// account books one operator execution at node id and refreshes the queue
// occupancy gauges. No-op until InstrumentInto is called.
func (e *Engine) account(id int) {
	o := e.obs
	if o == nil {
		return
	}
	o.steps.Inc()
	o.nodeSteps[id].Inc()
	o.queueTotal.Set(int64(e.queues.Total()))
	o.queuePeak.Set(int64(e.queues.Peak()))
}

// noteETS books one on-demand ETS injection at src and traces it.
func (e *Engine) noteETS(src *ops.Source) {
	e.etsInjected++
	if e.obs != nil {
		e.obs.ets.Inc()
	}
	if e.trace != nil {
		e.trace.Emit(metrics.EvETSGen, src.Name(), e.now(), int64(src.TSKind()))
	}
}
