package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tuple"
)

// File-format constants. A checkpoint directory holds two files:
//
//	MANIFEST  magic u32, version u8, id u64, barrier ETS i64, when i64,
//	          segment count uvarint, CRC u32 over everything before it
//	STATE     magic u32, version u8, then per-segment frames:
//	          name len uvarint, name, payload len uvarint, payload,
//	          CRC u32 over name+payload
//
// Both files are written into a ".tmp-*" directory, fsynced, and the
// directory atomically renamed to its final "ckpt-*" name — the rename is
// the commit point, so a crash anywhere mid-write leaves only a temp
// directory that Latest skips and Prune removes.
const (
	magicState    uint32 = 0x534d434b // "SMCK"
	magicManifest uint32 = 0x534d434d // "SMCM"

	manifestName = "MANIFEST"
	stateName    = "STATE"
	dirPrefix    = "ckpt-"
	tmpPrefix    = ".tmp-"
)

// maxSegment bounds one operator's decoded payload (64 MiB) so a corrupt
// length field cannot drive a huge allocation.
const maxSegment = 64 << 20

// Segment is one node's encoded state within a checkpoint.
type Segment struct {
	// Name identifies the node (operator name, unique within a graph).
	Name string
	// Payload is the operator's SaveState encoding.
	Payload []byte
}

// Snapshot is one complete checkpoint: the barrier's identity plus every
// stateful node's segment.
type Snapshot struct {
	// ID is the barrier's checkpoint ID (monotone per coordinator).
	ID uint64
	// Barrier is the merged barrier ETS observed at snapshot time (the
	// minimum across sources; informational).
	Barrier tuple.Time
	// When is the wall-clock time of the checkpoint in µs since the epoch.
	When int64
	// Segments holds each node's state, in node order.
	Segments []Segment
}

// Segment returns the named segment's payload, or nil when absent.
func (s *Snapshot) Segment(name string) []byte {
	for i := range s.Segments {
		if s.Segments[i].Name == name {
			return s.Segments[i].Payload
		}
	}
	return nil
}

// Store manages a directory of checkpoints.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) the checkpoint directory.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: create store: %w", err)
	}
	return &Store{dir: dir}, nil
}

func ckptDirName(id uint64) string { return fmt.Sprintf("%s%016d", dirPrefix, id) }

// Write durably commits one snapshot. It returns the total payload bytes
// written.
func (s *Store) Write(snap *Snapshot) (int64, error) {
	tmp := filepath.Join(s.dir, fmt.Sprintf("%s%016d", tmpPrefix, snap.ID))
	final := filepath.Join(s.dir, ckptDirName(snap.ID))
	if err := os.RemoveAll(tmp); err != nil {
		return 0, fmt.Errorf("ckpt: clear temp: %w", err)
	}
	if err := os.Mkdir(tmp, 0o755); err != nil {
		return 0, fmt.Errorf("ckpt: temp dir: %w", err)
	}
	var total int64

	// STATE: framed per-node segments, each CRC-protected independently so
	// a torn tail invalidates only the checkpoint, not the decoder.
	st := make([]byte, 0, 1024)
	st = binary.LittleEndian.AppendUint32(st, magicState)
	st = append(st, Version)
	for _, seg := range snap.Segments {
		st = binary.AppendUvarint(st, uint64(len(seg.Name)))
		st = append(st, seg.Name...)
		st = binary.AppendUvarint(st, uint64(len(seg.Payload)))
		st = append(st, seg.Payload...)
		crc := crc32.ChecksumIEEE([]byte(seg.Name))
		crc = crc32.Update(crc, crc32.IEEETable, seg.Payload)
		st = binary.LittleEndian.AppendUint32(st, crc)
		total += int64(len(seg.Payload))
	}
	if err := writeFileSync(filepath.Join(tmp, stateName), st); err != nil {
		return 0, err
	}

	// MANIFEST: identity + segment count, CRC-sealed. Written after STATE
	// so a manifest's presence implies a fully written state file.
	mf := make([]byte, 0, 64)
	mf = binary.LittleEndian.AppendUint32(mf, magicManifest)
	mf = append(mf, Version)
	mf = binary.LittleEndian.AppendUint64(mf, snap.ID)
	mf = binary.LittleEndian.AppendUint64(mf, uint64(snap.Barrier))
	mf = binary.LittleEndian.AppendUint64(mf, uint64(snap.When))
	mf = binary.AppendUvarint(mf, uint64(len(snap.Segments)))
	mf = binary.LittleEndian.AppendUint32(mf, crc32.ChecksumIEEE(mf))
	if err := writeFileSync(filepath.Join(tmp, manifestName), mf); err != nil {
		return 0, err
	}

	if err := syncDir(tmp); err != nil {
		return 0, err
	}
	if err := os.RemoveAll(final); err != nil {
		return 0, fmt.Errorf("ckpt: clear final: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return 0, fmt.Errorf("ckpt: commit: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return 0, err
	}
	return total, nil
}

// List reports the IDs of complete checkpoints, ascending.
func (s *Store) List() ([]uint64, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: list: %w", err)
	}
	var ids []uint64
	for _, e := range ents {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), dirPrefix) {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimPrefix(e.Name(), dirPrefix), 10, 64)
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// Latest loads the newest complete, structurally valid checkpoint, skipping
// corrupt ones. It returns nil (and no error) when the store holds none.
func (s *Store) Latest() (*Snapshot, error) {
	ids, err := s.List()
	if err != nil {
		return nil, err
	}
	for i := len(ids) - 1; i >= 0; i-- {
		snap, err := s.Load(ids[i])
		if err == nil {
			return snap, nil
		}
	}
	return nil, nil
}

// Load reads one checkpoint by ID, verifying manifest and segment CRCs.
func (s *Store) Load(id uint64) (*Snapshot, error) {
	dir := filepath.Join(s.dir, ckptDirName(id))
	mf, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if len(mf) < 4+1+8+8+8+1+4 {
		return nil, fmt.Errorf("%w: short manifest", ErrCorrupt)
	}
	body, crcb := mf[:len(mf)-4], mf[len(mf)-4:]
	if binary.LittleEndian.Uint32(crcb) != crc32.ChecksumIEEE(body) {
		return nil, fmt.Errorf("%w: manifest CRC", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(body) != magicManifest {
		return nil, fmt.Errorf("%w: manifest magic", ErrCorrupt)
	}
	if body[4] != Version {
		return nil, fmt.Errorf("ckpt: snapshot version %d, want %d", body[4], Version)
	}
	snap := &Snapshot{
		ID:      binary.LittleEndian.Uint64(body[5:]),
		Barrier: tuple.Time(binary.LittleEndian.Uint64(body[13:])),
		When:    int64(binary.LittleEndian.Uint64(body[21:])),
	}
	count, n := binary.Uvarint(body[29:])
	if n <= 0 || snap.ID != id {
		return nil, fmt.Errorf("%w: manifest fields", ErrCorrupt)
	}

	st, err := os.ReadFile(filepath.Join(dir, stateName))
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if len(st) < 5 || binary.LittleEndian.Uint32(st) != magicState || st[4] != Version {
		return nil, fmt.Errorf("%w: state header", ErrCorrupt)
	}
	off := 5
	for i := uint64(0); i < count; i++ {
		name, next, err := readFrameField(st, off)
		if err != nil {
			return nil, err
		}
		payload, next2, err := readFrameField(st, next)
		if err != nil {
			return nil, err
		}
		if next2+4 > len(st) {
			return nil, fmt.Errorf("%w: short segment CRC", ErrCorrupt)
		}
		crc := crc32.ChecksumIEEE(name)
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		if binary.LittleEndian.Uint32(st[next2:]) != crc {
			return nil, fmt.Errorf("%w: segment %q CRC", ErrCorrupt, name)
		}
		off = next2 + 4
		snap.Segments = append(snap.Segments, Segment{Name: string(name), Payload: payload})
	}
	if off != len(st) {
		return nil, fmt.Errorf("%w: trailing state bytes", ErrCorrupt)
	}
	return snap, nil
}

func readFrameField(b []byte, off int) ([]byte, int, error) {
	n, sz := binary.Uvarint(b[off:])
	if sz <= 0 || n > maxSegment || n > uint64(len(b)-off-sz) {
		return nil, 0, fmt.Errorf("%w: segment frame at %d", ErrCorrupt, off)
	}
	start := off + sz
	return b[start : start+int(n)], start + int(n), nil
}

// Prune keeps the newest `keep` complete checkpoints, removing older ones
// and any leftover temp directories.
func (s *Store) Prune(keep int) error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("ckpt: prune: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), tmpPrefix) {
			os.RemoveAll(filepath.Join(s.dir, e.Name()))
		}
	}
	ids, err := s.List()
	if err != nil {
		return err
	}
	if keep < 1 {
		keep = 1
	}
	for len(ids) > keep {
		if err := os.RemoveAll(filepath.Join(s.dir, ckptDirName(ids[0]))); err != nil {
			return fmt.Errorf("ckpt: prune: %w", err)
		}
		ids = ids[1:]
	}
	return nil
}

func writeFileSync(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("ckpt: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("ckpt: sync %s: %w", path, err)
	}
	return f.Close()
}

func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("ckpt: sync dir %s: %w", dir, err)
	}
	return nil
}
