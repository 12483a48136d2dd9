package storage

import (
	"bufio"
	"fmt"
	"os"
	"sync"

	"repro/internal/encoding"
	"repro/internal/types"
	"repro/internal/vector"
)

// ContainerWriter streams batches into a new ROS container directory, a
// block at a time. It encodes what it is given: sort order, the epoch column
// and delete vectors are Placement.WriteRun's business, its one caller
// outside tests.
//
// The container is written into a temporary directory and atomically renamed
// into place on Close, so a crash mid-write never leaves a half-container
// visible — rollback is "simply discarding any ROS container ... created by
// the transaction" (paper §5).
type ContainerWriter struct {
	meta     *ContainerMeta
	finalDir string
	tmpDir   string

	blockRows int
	files     []*os.File
	offsets   []int64
	pidxBufs  [][]byte
	rows      int64
	closed    bool

	enc *blockEncoder // from encoders until Close or Abort
}

// blockEncoder is a writer's scratch: the Encoder, the buffer each block is
// encoded into until it is written, and per column the file's write buffer
// and the rows not yet in a block.
type blockEncoder struct {
	encoding.Encoder
	block   []byte
	bufs    []*bufio.Writer
	pending []*vector.Vector
}

// reset readies the scratch for a container of cols, its write buffers on
// files: buffers and vectors of earlier containers are reused, truncated.
func (e *blockEncoder) reset(cols []ColumnSpec, files []*os.File, blockRows int) {
	for len(e.bufs) < len(cols) {
		e.bufs = append(e.bufs, bufio.NewWriterSize(nil, 1<<16))
		e.pending = append(e.pending, nil)
	}
	e.bufs, e.pending = e.bufs[:len(cols)], e.pending[:len(cols)]
	for i, c := range cols {
		e.bufs[i].Reset(files[i])
		if v := e.pending[i]; v == nil || v.Typ != c.Typ || v.Cap() < blockRows {
			e.pending[i] = vector.New(c.Typ, blockRows)
		} else {
			v.Reset()
		}
	}
}

// encoders keeps the scratch of finished writers warm for the next, so that
// a moveout's writer does not grow a cold Encoder's buffers, tables and
// slices again.
var encoders = sync.Pool{New: func() any { return new(blockEncoder) }}

// WriterOpts configures container writing.
type WriterOpts struct {
	BlockRows int // values per block; DefaultBlockRows if 0
}

// NewContainerWriter creates a writer for a container that will appear at
// dir once Close succeeds. The meta's RowCount and SizeBytes are filled in
// by Close.
func NewContainerWriter(dir string, meta *ContainerMeta, opts WriterOpts) (*ContainerWriter, error) {
	if opts.BlockRows <= 0 {
		opts.BlockRows = DefaultBlockRows
	}
	tmp := dir + ".tmp"
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	w := &ContainerWriter{
		meta:      meta,
		finalDir:  dir,
		tmpDir:    tmp,
		blockRows: opts.BlockRows,
		files:     make([]*os.File, len(meta.Cols)),
		offsets:   make([]int64, len(meta.Cols)),
		pidxBufs:  make([][]byte, len(meta.Cols)),
		enc:       encoders.Get().(*blockEncoder),
	}
	for i := range meta.Cols {
		f, err := os.Create(meta.dataPath(tmp, i))
		if err != nil {
			w.abort()
			return nil, err
		}
		w.files[i] = f
	}
	w.enc.reset(meta.Cols, w.files, opts.BlockRows)
	return w, nil
}

// Append adds the rows of a flat, unselected batch with one column per
// column of the container spec.
func (w *ContainerWriter) Append(b *vector.Batch) error {
	if b.NumCols() != len(w.meta.Cols) {
		return fmt.Errorf("storage: batch has %d columns, container %s expects %d", b.NumCols(), w.meta.ID, len(w.meta.Cols))
	}
	for c, v := range b.Cols {
		w.enc.pending[c].AppendFrom(v, nil)
	}
	w.rows += int64(b.Len())
	return w.flushBlocks(false)
}

// flushBlocks writes the pending rows as blocks of blockRows — the last one
// shorter, when final — and moves the rest to the front of their vectors.
func (w *ContainerWriter) flushBlocks(final bool) error {
	pending := w.enc.pending
	n, lo := pending[0].PhysLen(), 0
	for ; n-lo >= w.blockRows || (final && lo < n); lo += w.blockRows {
		hi := min(lo+w.blockRows, n)
		for c, v := range pending {
			if err := w.writeBlock(c, v.Slice(lo, hi), w.rows-int64(n-lo)); err != nil {
				return err
			}
		}
	}
	if lo = min(lo, n); lo > 0 {
		for _, v := range pending {
			v.DropFront(lo)
		}
	}
	return nil
}

func (w *ContainerWriter) writeBlock(c int, block *vector.Vector, firstPos int64) error {
	var err error
	enc := w.enc
	if enc.block, err = enc.AppendBlock(enc.block[:0], w.meta.Cols[c].Enc, block); err != nil {
		return fmt.Errorf("storage: column %s: %w", w.meta.Cols[c].Name, err)
	}
	mn, mx, ok := block.MinMax()
	if !ok {
		mn, mx = types.NewNull(block.Typ), types.NewNull(block.Typ)
	}
	e := PidxEntry{
		Offset:   w.offsets[c],
		Length:   int64(len(enc.block)),
		FirstPos: firstPos,
		RowCount: int64(block.PhysLen()),
		Min:      mn,
		Max:      mx,
	}
	w.pidxBufs[c] = appendPidxEntry(w.pidxBufs[c], &e)
	if _, err := enc.bufs[c].Write(enc.block); err != nil {
		return err
	}
	w.offsets[c] += int64(len(enc.block))
	return nil
}

// Close flushes remaining rows, writes position indexes and metadata, and
// atomically publishes the container directory. On error the temporary
// directory is removed.
func (w *ContainerWriter) Close() (*ContainerMeta, error) {
	if w.closed {
		return w.meta, nil
	}
	w.closed = true
	if err := w.flushBlocks(true); err != nil {
		w.abort()
		return nil, err
	}
	var total int64
	for c := range w.meta.Cols {
		if err := w.enc.bufs[c].Flush(); err != nil {
			w.abort()
			return nil, err
		}
		if err := w.files[c].Close(); err != nil {
			w.abort()
			return nil, err
		}
		if err := os.WriteFile(w.meta.pidxPath(w.tmpDir, c), w.pidxBufs[c], 0o644); err != nil {
			w.abort()
			return nil, err
		}
		total += w.offsets[c]
	}
	w.meta.RowCount = w.rows
	w.meta.SizeBytes = total
	if err := writeMeta(w.tmpDir, w.meta); err != nil {
		w.abort()
		return nil, err
	}
	if err := os.Rename(w.tmpDir, w.finalDir); err != nil {
		w.abort()
		return nil, err
	}
	w.releaseEncoder()
	return w.meta, nil
}

// Abort discards the container without publishing it.
func (w *ContainerWriter) Abort() {
	if w.closed {
		return
	}
	w.closed = true
	w.abort()
}

func (w *ContainerWriter) abort() {
	for _, f := range w.files {
		if f != nil {
			f.Close()
		}
	}
	os.RemoveAll(w.tmpDir)
	w.releaseEncoder()
}

// releaseEncoder gives the writer's scratch back to encoders, once, its
// write buffers detached from the writer's files.
func (w *ContainerWriter) releaseEncoder() {
	if w.enc != nil {
		for _, b := range w.enc.bufs {
			b.Reset(nil)
		}
		encoders.Put(w.enc)
		w.enc = nil
	}
}
