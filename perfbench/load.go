package main

import (
	"sync"
	"time"

	"repro/client"
	"repro/internal/tuple"
)

// tickUs is the generator's tick: every tick sends the tuples that fell due
// since the previous one as one SendBatch followed by a Flush.
const tickUs = 1000

// unpacedBatch is the tuples per send in the unpaced phase (the client's
// default frame size).
const unpacedBatch = client.DefaultBatchSize

// feeder drives one stream over its own connection in an open loop: paced
// phases follow the generated Poisson schedule on the shared clock, whatever
// the engine does; the unpaced phase sends its evenly spaced tuples as fast
// as the connection takes them. It never sends punctuation, so every ETS the
// engine sees is one it generated on demand.
type feeder struct {
	w     *workload
	seed  uint64
	idx   int
	str   *client.Stream
	conn  *client.Conn
	clock func() tuple.Time

	seq      int       // tuples sent so far
	late     [][]int32 // paced sends: µs from the oldest due time to send start, per slice
	sendErrs int
	upStart  int64 // clock at the first unpaced send (-1 if none)

	lock *lockstep

	traced bool
	ticks  []tick
}

// lockSlack is how many batches a flooding stream may run ahead of another.
const lockSlack = 4

// lockstep keeps a flood's streams within lockSlack batches of each other in
// event time. Left free, one generator can race seconds ahead of the other
// and the join buffers its whole lead, so a flood's cost would depend on how
// the two goroutines happened to be scheduled.
type lockstep struct {
	mu    sync.Mutex
	cond  *sync.Cond
	done  []int // batches each stream has sent
	total []int // batches each stream sends in the flood
}

func newLockstep(in *inputs) *lockstep {
	l := &lockstep{done: make([]int, len(in.unpaced)), total: make([]int, len(in.unpaced))}
	l.cond = sync.NewCond(&l.mu)
	for s, n := range in.unpaced {
		l.total[s] = (n + unpacedBatch - 1) / unpacedBatch
	}
	return l
}

// wait blocks stream s before its batch k (counting from 0) until every
// other stream has sent k-lockSlack batches, or all of its own.
func (l *lockstep) wait(s, k int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for o := 0; o < len(l.done); o++ {
		if o != s && l.done[o] < min(k-lockSlack, l.total[o]) {
			l.cond.Wait()
			o = -1
		}
	}
}

// sent records that stream s sent its next batch.
func (l *lockstep) sent(s int) {
	l.mu.Lock()
	l.done[s]++
	l.mu.Unlock()
	l.cond.Broadcast()
}

// tick is one send as the traced run saw it: the generator span runs from
// the first tuple's due time to the send, the client span from the send to
// the end of the flush.
type tick struct {
	first      uint64 // sequence number of the first tuple
	n          int32
	due        int64
	send, done int64
}

func (f *feeder) sleepUntil(at int64) {
	if d := at - int64(f.clock()); d > 0 {
		time.Sleep(time.Duration(d) * time.Microsecond)
	}
}

// run sends the whole load and ends the stream. starts are the phase start
// instants (lo, hi, unpaced).
func (f *feeder) run(in *inputs, starts [nPaced + 1]int64) {
	batch := make([]*tuple.Tuple, 0, unpacedBatch)
	arity := len(f.w.cols)
	for p := 0; p < nPaced; p++ {
		base, offs := starts[p], in.paced[f.idx][p]
		next := base
		for i := 0; i < len(offs); {
			// Sleep to the tick that covers the next due tuple (at least one
			// tick after the last), then send everything due by now.
			at := base + (int64(offs[i])+tickUs-1)/tickUs*tickUs
			next = max(next+tickUs, at)
			f.sleepUntil(next)
			now := int64(f.clock())
			batch = batch[:0]
			for ; i < len(offs) && base+int64(offs[i]) <= now; i++ {
				batch = append(batch, f.tuple(base+int64(offs[i]), arity))
			}
			if len(batch) > 0 {
				f.send(batch, starts[0], true)
			}
		}
	}
	f.upStart = -1
	for k, end := 0, f.seq+in.unpaced[f.idx]; f.seq < end; k++ {
		if f.upStart < 0 {
			f.upStart = int64(f.clock())
		}
		f.lock.wait(f.idx, k)
		batch = batch[:0]
		for n := min(end-f.seq, unpacedBatch); n > 0; n-- {
			batch = append(batch, f.tuple(f.w.at(in, f.idx, f.seq, starts), arity))
		}
		f.send(batch, starts[0], false)
		f.lock.sent(f.idx)
	}
	if err := f.str.CloseSend(); err != nil {
		f.sendErrs++
	}
}

// tuple builds the next tuple of the stream, stamped ts.
func (f *feeder) tuple(ts int64, arity int) *tuple.Tuple {
	t := tuple.GetData(tuple.Time(ts), arity)
	f.w.fill(f.seed, f.idx, uint64(f.seq), t.Vals)
	f.seq++
	return t
}

// send ships one tick's tuples; the stream takes ownership of them. A paced
// send's lateness — how far behind its oldest tuple's due time it started —
// is filed under the slice of the run that due time falls in; the run
// starts at t0.
func (f *feeder) send(batch []*tuple.Tuple, t0 int64, paced bool) {
	first := uint64(f.seq - len(batch))
	due := int64(batch[0].Ts)
	start := int64(f.clock())
	if paced {
		k := min(int((due-t0)/sliceUs), len(f.late)-1)
		f.late[k] = append(f.late[k], int32(start-due))
	}
	err := f.str.SendBatch(batch)
	if err == nil {
		err = f.conn.Flush()
	}
	if err != nil {
		f.sendErrs += len(batch)
	}
	if f.traced {
		f.ticks = append(f.ticks, tick{first: first, n: int32(len(batch)), due: due, send: start, done: int64(f.clock())})
	}
}
