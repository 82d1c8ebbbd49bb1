package tuple

import (
	"math"
	"sync"
)

// Columnar batch layout for the hot data plane.
//
// A ColBatch holds a run of data tuples decomposed into per-attribute typed
// columns (struct-of-arrays) plus a dense timestamp column, so filters,
// projections and hash-key loops run over contiguous memory instead of
// chasing *Tuple pointers field by field. Punctuation does not travel
// in-band as rows: each ETS is a PunctMark {Pos, Ts} in batch metadata,
// meaning "after the first Pos data rows of this batch, an ETS of Ts was
// observed". Converting to rows re-interleaves marks at exactly those
// positions, so the row and columnar representations of a stream segment
// are interchangeable (the FuzzColBatchRoundTrip target checks this).
//
// Column typing is optimistic: a column starts Null, adopts the kind of the
// first non-null value appended, and stores payloads in one typed slice
// (int64 for int/bool/time, float64, string). If a later value arrives with
// a different kind — legal, if unusual, in this engine's dynamically typed
// tuples — the column is promoted to a boxed []Value fallback so no
// information is lost. A validity bitmap tracks nulls; invalid rows hold
// zero payload entries so typed loops can read them without branching.
//
// Ownership follows the tuple pool discipline: a batch obtained from
// GetColBatch is owned by whoever holds the pointer, PutColBatch hands it
// back, and recycling is always optional.

// PunctMark is one punctuation carried as batch metadata: an ETS of Ts
// observed after the first Pos data rows of the batch. Marks are ordered by
// Pos (ties preserve arrival order); Pos ranges over [0, Len()]. An ETS of
// MaxTime marks end-of-stream. Ckpt mirrors Tuple.Ckpt: a non-zero value
// tags the mark as a checkpoint barrier, so barriers survive row⇄columnar
// conversion and the TUPLES_COL wire frame.
type PunctMark struct {
	Pos  int
	Ts   Time
	Ckpt uint64
}

// Col is one attribute column of a ColBatch.
type Col struct {
	// Kind is the uniform kind of the column's non-null values; Null until
	// the first non-null value is appended. Meaningless when Any is non-nil.
	Kind ValueKind
	// I64 holds int, bool (0/1) and time payloads; F64 float payloads; Str
	// string payloads. Exactly one is active (per Kind) and, once the column
	// has adopted a kind, its length always equals the batch row count —
	// null rows hold zero entries.
	I64 []int64
	F64 []float64
	Str []string
	// Any, when non-nil, is the mixed-kind fallback and is authoritative:
	// the column was promoted because values of different kinds were
	// appended. Its length always equals the batch row count.
	Any []Value
	// Valid has bit i set iff row i is non-null.
	Valid Bitmap
}

// ColBatch is a columnar run of data rows plus punctuation metadata.
// Fields are exported so operators can run typed loops directly; use the
// Append*/Value/FillRow helpers to keep the representation invariants.
type ColBatch struct {
	n int
	// Ts is the dense timestamp column, one entry per data row.
	Ts []Time
	// Arrived and Seq mirror Tuple.Arrived / Tuple.Seq per row. Arrived is
	// used for latency accounting; both survive round-trips.
	Arrived []Time
	Seq     []uint64
	// Cols holds one Col per schema attribute.
	Cols []Col
	// Puncts is the punctuation metadata, ordered by Pos.
	Puncts []PunctMark
}

// NewColBatch returns an empty batch with ncols attribute columns.
func NewColBatch(ncols int) *ColBatch {
	b := &ColBatch{}
	b.Reset(ncols)
	return b
}

// Len reports the number of data rows.
func (b *ColBatch) Len() int { return b.n }

// NumCols reports the number of attribute columns.
func (b *ColBatch) NumCols() int { return len(b.Cols) }

// Empty reports whether the batch carries neither rows nor punctuation.
func (b *ColBatch) Empty() bool { return b.n == 0 && len(b.Puncts) == 0 }

// HasPunct reports whether the batch carries punctuation metadata.
func (b *ColBatch) HasPunct() bool { return len(b.Puncts) > 0 }

// MaxTs returns the largest row timestamp and whether the batch has rows.
func (b *ColBatch) MaxTs() (Time, bool) {
	if b.n == 0 {
		return 0, false
	}
	m := b.Ts[0]
	for _, t := range b.Ts[1:b.n] {
		if t > m {
			m = t
		}
	}
	return m, true
}

// Reset clears the batch to zero rows and punctuation with ncols attribute
// columns, retaining column storage capacity. ncols < 0 keeps the current
// column count.
func (b *ColBatch) Reset(ncols int) {
	b.n = 0
	b.Ts = b.Ts[:0]
	b.Arrived = b.Arrived[:0]
	b.Seq = b.Seq[:0]
	b.Puncts = b.Puncts[:0]
	if ncols < 0 {
		ncols = len(b.Cols)
	}
	if cap(b.Cols) < ncols {
		b.Cols = make([]Col, ncols)
	} else {
		for i := ncols; i < len(b.Cols); i++ {
			b.Cols[i] = Col{}
		}
		b.Cols = b.Cols[:ncols]
		for i := range b.Cols {
			b.Cols[i].reset()
		}
	}
}

func (c *Col) reset() {
	c.Kind = Null
	c.I64 = c.I64[:0]
	c.F64 = c.F64[:0]
	for i := range c.Str {
		c.Str[i] = "" // drop string references so the pool does not pin them
	}
	c.Str = c.Str[:0]
	c.Any = nil
	c.Valid.Reset()
}

// AppendPunct records a punctuation with ETS ts after the rows appended so
// far.
func (b *ColBatch) AppendPunct(ts Time) {
	b.Puncts = append(b.Puncts, PunctMark{Pos: b.n, Ts: ts})
}

// AppendPunctCkpt is AppendPunct carrying a checkpoint barrier tag.
func (b *ColBatch) AppendPunctCkpt(ts Time, ckpt uint64) {
	b.Puncts = append(b.Puncts, PunctMark{Pos: b.n, Ts: ts, Ckpt: ckpt})
}

// AppendTuple appends one tuple — a data row or, for Kind==Punct, a
// punctuation mark. The tuple's values are copied; t is not retained. The
// batch must have been created with ncols == len(t.Vals) for data tuples
// (a batch that has never seen a data row adopts the first row's arity).
func (b *ColBatch) AppendTuple(t *Tuple) {
	if t.IsPunct() {
		b.AppendPunctCkpt(t.Ts, t.Ckpt)
		return
	}
	if b.n == 0 && len(b.Cols) != len(t.Vals) {
		b.resizeCols(len(t.Vals))
	}
	b.Ts = append(b.Ts, t.Ts)
	b.Arrived = append(b.Arrived, t.Arrived)
	b.Seq = append(b.Seq, t.Seq)
	for i := range b.Cols {
		b.Cols[i].appendValue(t.Vals[i], b.n)
	}
	b.n++
}

// AppendRow appends one data row given its components. vals is copied.
func (b *ColBatch) AppendRow(ts, arrived Time, seq uint64, vals []Value) {
	if b.n == 0 && len(b.Cols) != len(vals) {
		b.resizeCols(len(vals))
	}
	b.Ts = append(b.Ts, ts)
	b.Arrived = append(b.Arrived, arrived)
	b.Seq = append(b.Seq, seq)
	for i := range b.Cols {
		b.Cols[i].appendValue(vals[i], b.n)
	}
	b.n++
}

func (b *ColBatch) resizeCols(ncols int) {
	if cap(b.Cols) < ncols {
		b.Cols = make([]Col, ncols)
		return
	}
	old := len(b.Cols)
	b.Cols = b.Cols[:ncols]
	for i := old; i < ncols; i++ {
		b.Cols[i].reset()
	}
}

// AppendRowFrom appends row i of src as a new row of b, copying typed
// payloads directly when the column representations agree. Both batches
// must have the same number of columns.
func (b *ColBatch) AppendRowFrom(src *ColBatch, i int) {
	if b.n == 0 && len(b.Cols) != len(src.Cols) {
		b.resizeCols(len(src.Cols))
	}
	b.Ts = append(b.Ts, src.Ts[i])
	b.Arrived = append(b.Arrived, src.Arrived[i])
	b.Seq = append(b.Seq, src.Seq[i])
	for c := range b.Cols {
		b.Cols[c].appendFrom(&src.Cols[c], i, b.n)
	}
	b.n++
}

// AppendBatch appends all rows and punctuation of src to b, preserving
// their interleaving. src is not modified.
func (b *ColBatch) AppendBatch(src *ColBatch) {
	base := b.n
	for i := 0; i < src.n; i++ {
		b.AppendRowFrom(src, i)
	}
	for _, p := range src.Puncts {
		b.Puncts = append(b.Puncts, PunctMark{Pos: base + p.Pos, Ts: p.Ts, Ckpt: p.Ckpt})
	}
}

// appendValue appends v at row n (the current row count).
func (c *Col) appendValue(v Value, n int) {
	if c.Any != nil {
		c.Any = append(c.Any, v)
		if v.kind != Null {
			c.Valid.Set(n)
		}
		return
	}
	if v.kind == Null {
		c.pad(n + 1)
		return
	}
	if c.Kind == Null {
		c.Kind = v.kind
		c.pad(n)
	} else if v.kind != c.Kind {
		c.promote(n)
		c.Any = append(c.Any, v)
		c.Valid.Set(n)
		return
	}
	c.Valid.Set(n)
	switch c.Kind {
	case IntKind, BoolKind, TimeKind:
		c.I64 = append(c.I64, v.i)
	case FloatKind:
		c.F64 = append(c.F64, v.f)
	case StringKind:
		c.Str = append(c.Str, v.s)
	}
}

// appendFrom appends row i of s at row n of c.
func (c *Col) appendFrom(s *Col, i, n int) {
	if s.Any == nil && c.Any == nil && s.Valid.Get(i) && (c.Kind == s.Kind || c.Kind == Null) {
		if c.Kind == Null {
			c.Kind = s.Kind
			c.pad(n)
		}
		c.Valid.Set(n)
		switch c.Kind {
		case IntKind, BoolKind, TimeKind:
			c.I64 = append(c.I64, s.I64[i])
		case FloatKind:
			c.F64 = append(c.F64, s.F64[i])
		case StringKind:
			c.Str = append(c.Str, s.Str[i])
		}
		return
	}
	c.appendValue(s.value(i), n)
}

// pad extends the active payload slice with zero entries to length n (only
// meaningful once the column has adopted a kind).
func (c *Col) pad(n int) {
	switch c.Kind {
	case IntKind, BoolKind, TimeKind:
		for len(c.I64) < n {
			c.I64 = append(c.I64, 0)
		}
	case FloatKind:
		for len(c.F64) < n {
			c.F64 = append(c.F64, 0)
		}
	case StringKind:
		for len(c.Str) < n {
			c.Str = append(c.Str, "")
		}
	}
}

// promote converts the column's first n rows to the boxed fallback.
func (c *Col) promote(n int) {
	any := make([]Value, n, n+1)
	for i := 0; i < n; i++ {
		any[i] = c.value(i)
	}
	c.Any = any
	c.I64 = c.I64[:0]
	c.F64 = c.F64[:0]
	for i := range c.Str {
		c.Str[i] = ""
	}
	c.Str = c.Str[:0]
}

// value reconstructs the Value at row i.
func (c *Col) value(i int) Value {
	if c.Any != nil {
		return c.Any[i]
	}
	if !c.Valid.Get(i) {
		return Value{}
	}
	switch c.Kind {
	case IntKind, BoolKind, TimeKind:
		return Value{kind: c.Kind, i: c.I64[i]}
	case FloatKind:
		return Value{kind: FloatKind, f: c.F64[i]}
	case StringKind:
		return Value{kind: StringKind, s: c.Str[i]}
	}
	return Value{}
}

// Value returns the value at column c, row r.
func (b *ColBatch) Value(c, r int) Value { return b.Cols[c].value(r) }

// SetLen declares the batch's row count after its exported columns were
// filled directly — the wire-decode path, which reconstructs typed columns
// without going through AppendRow. Ts must already hold n entries; Arrived
// and Seq are zero-padded to the new length (a decoded batch has not
// arrived anywhere yet — ingest stamps both).
func (b *ColBatch) SetLen(n int) {
	b.n = n
	for len(b.Arrived) < n {
		b.Arrived = append(b.Arrived, 0)
	}
	for len(b.Seq) < n {
		b.Seq = append(b.Seq, 0)
	}
}

// FillRow materializes row r into t: timestamp, arrival time, sequence
// number and values. t's Vals slice is reused when it has capacity. The
// filled values alias the batch's string storage; callers must treat the
// tuple as read-only while the batch is live (Value payloads are copied,
// so retaining individual Values is safe).
func (b *ColBatch) FillRow(r int, t *Tuple) {
	t.Kind = Data
	t.Ts = b.Ts[r]
	t.Arrived = b.Arrived[r]
	t.Seq = b.Seq[r]
	if cap(t.Vals) < len(b.Cols) {
		t.Vals = make([]Value, len(b.Cols))
	} else {
		t.Vals = t.Vals[:len(b.Cols)]
	}
	for c := range b.Cols {
		t.Vals[c] = b.Cols[c].value(r)
	}
}

// AppendRows converts the batch back to row form, appending to dst: data
// rows and punctuation tuples interleaved exactly as the punctuation marks
// record. Tuples are allocated from mag when non-nil (else from the shared
// pool), so a recycling consumer keeps the conversion allocation-free.
func (b *ColBatch) AppendRows(dst []*Tuple, mag *Magazine) []*Tuple {
	pi := 0
	for r := 0; r < b.n; r++ {
		for pi < len(b.Puncts) && b.Puncts[pi].Pos <= r {
			pt := GetPunct(b.Puncts[pi].Ts)
			pt.Ckpt = b.Puncts[pi].Ckpt
			dst = append(dst, pt)
			pi++
		}
		var t *Tuple
		if mag != nil {
			t = mag.Get()
		} else {
			t = Get()
		}
		b.FillRow(r, t)
		dst = append(dst, t)
	}
	for ; pi < len(b.Puncts); pi++ {
		pt := GetPunct(b.Puncts[pi].Ts)
		pt.Ckpt = b.Puncts[pi].Ckpt
		dst = append(dst, pt)
	}
	return dst
}

// CloneInto deep-copies b into dst (dst is reset first) and returns dst;
// a nil dst allocates. Used by fan-out arcs, where each consumer owns its
// own copy.
func (b *ColBatch) CloneInto(dst *ColBatch) *ColBatch {
	if dst == nil {
		dst = &ColBatch{}
	}
	dst.Reset(len(b.Cols))
	dst.Ts = append(dst.Ts, b.Ts[:b.n]...)
	dst.Arrived = append(dst.Arrived, b.Arrived[:b.n]...)
	dst.Seq = append(dst.Seq, b.Seq[:b.n]...)
	dst.Puncts = append(dst.Puncts, b.Puncts...)
	dst.n = b.n
	for i := range b.Cols {
		b.Cols[i].cloneInto(&dst.Cols[i])
	}
	return dst
}

func (c *Col) cloneInto(dst *Col) {
	dst.Kind = c.Kind
	dst.I64 = append(dst.I64[:0], c.I64...)
	dst.F64 = append(dst.F64[:0], c.F64...)
	dst.Str = append(dst.Str[:0], c.Str...)
	if c.Any != nil {
		dst.Any = append([]Value(nil), c.Any...)
	} else {
		dst.Any = nil
	}
	dst.Valid.SetWords(c.Valid.w)
}

// HashKey appends the per-row hash of column key to dst and returns it.
// The hash is exactly Value.Hash row by row — numeric kinds hash through
// their float64 widening with -0 normalized — so columnar hash routing
// lands every row on the same shard as the row-at-a-time path.
func (b *ColBatch) HashKey(key int, dst []uint64) []uint64 {
	c := &b.Cols[key]
	n := b.n
	if c.Any != nil {
		for r := 0; r < n; r++ {
			dst = append(dst, c.Any[r].Hash())
		}
		return dst
	}
	nullHash := fnvByte(fnvOffset64, 0) // Value{}.Hash()
	switch c.Kind {
	case IntKind, TimeKind:
		payload := c.I64[:n]
		for r := 0; r < n; r++ {
			if !c.Valid.Get(r) {
				dst = append(dst, nullHash)
				continue
			}
			dst = append(dst, hashNumeric(float64(payload[r])))
		}
	case FloatKind:
		payload := c.F64[:n]
		for r := 0; r < n; r++ {
			if !c.Valid.Get(r) {
				dst = append(dst, nullHash)
				continue
			}
			dst = append(dst, hashNumeric(payload[r]))
		}
	case BoolKind:
		payload := c.I64[:n]
		for r := 0; r < n; r++ {
			if !c.Valid.Get(r) {
				dst = append(dst, nullHash)
				continue
			}
			h := fnvByte(fnvOffset64, 3)
			dst = append(dst, fnvByte(h, byte(payload[r])))
		}
	case StringKind:
		payload := c.Str[:n]
		for r := 0; r < n; r++ {
			if !c.Valid.Get(r) {
				dst = append(dst, nullHash)
				continue
			}
			h := fnvByte(fnvOffset64, 2)
			s := payload[r]
			for i := 0; i < len(s); i++ {
				h = fnvByte(h, s[i])
			}
			dst = append(dst, h)
		}
	default: // all-null column
		for r := 0; r < n; r++ {
			dst = append(dst, nullHash)
		}
	}
	return dst
}

func hashNumeric(f float64) uint64 {
	if f == 0 {
		f = 0 // normalize -0.0, as Value.Hash does
	}
	return fnvWord(fnvByte(fnvOffset64, 1), math.Float64bits(f))
}

// ProjectCols rearranges the batch's columns to Cols[idx[0]], Cols[idx[1]],
// … in place. Column structs are moved, not copied, except when idx names a
// source column more than once — duplicates are deep-copied. scratch (may
// be nil) is used as the new column array when it has capacity; the
// previous column array is returned, cleared, for the caller to reuse as
// the next call's scratch.
func (b *ColBatch) ProjectCols(idx []int, scratch []Col) []Col {
	if cap(scratch) < len(idx) {
		scratch = make([]Col, len(idx))
	} else {
		scratch = scratch[:len(idx)]
	}
	for j, src := range idx {
		dup := false
		for k := 0; k < j; k++ {
			if idx[k] == src {
				dup = true
				break
			}
		}
		if dup {
			scratch[j] = Col{}
			b.Cols[src].cloneInto(&scratch[j])
		} else {
			scratch[j] = b.Cols[src]
		}
	}
	old := b.Cols
	b.Cols = scratch
	for i := range old {
		old[i] = Col{}
	}
	return old[:0]
}

// colBatchPool recycles ColBatch headers (and, transitively, their column
// storage). One shared pool suffices: Reset adapts a recycled batch to any
// column count, and column payload slices regrow lazily.
var colBatchPool = sync.Pool{New: func() interface{} { return new(ColBatch) }}

// GetColBatch returns an empty pooled batch with ncols attribute columns.
func GetColBatch(ncols int) *ColBatch {
	b := colBatchPool.Get().(*ColBatch)
	b.Reset(ncols)
	return b
}

// PutColBatch recycles b. The caller must own b exclusively; PutColBatch is
// nil-safe. String references are dropped so recycled batches do not pin
// row data against the GC.
func PutColBatch(b *ColBatch) {
	if b == nil {
		return
	}
	b.Reset(-1)
	colBatchPool.Put(b)
}
