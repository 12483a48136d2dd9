package exec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/encoding"
	"repro/internal/types"
	"repro/internal/vector"
)

// Spill runs: operators externalize arbitrary-size state to disk (paper
// §6.1: "all operators are capable of handling arbitrary sized inputs,
// regardless of the memory allocated, by externalizing their buffers to
// disk"). A run is a file of frames, one per batch written; a frame is the
// batch's columns one after another, each a length-prefixed uncompressed
// block of internal/encoding. Reading a run decodes a frame — a batch — at
// a time.

// runSet owns an operator's runs. A run joins the set when its file is
// created, before the first frame is written, so whatever stops the operator
// — an error, a cancel, a switch of algorithm half done — its Close, which
// closes the set, removes every file.
type runSet struct{ runs []*spillRun }

// spill writes the batch as a new run of the set, a frame of
// vector.DefaultBatchSize rows at a time, polling cancellation between
// frames (a run can be long, and the point of a cancel is to stop burning
// disk promptly), and records the externalization under event.
func (s *runSet) spill(ctx *Ctx, prof *OpProf, event string, schema *types.Schema, b *vector.Batch) (*spillRun, error) {
	f, err := os.CreateTemp(spillDir(ctx), "spill-*.run")
	if err != nil {
		return nil, err
	}
	run := &spillRun{f: f, schema: schema}
	s.runs = append(s.runs, run)
	w := bufio.NewWriterSize(f, 1<<16)
	for lo, n := 0, b.Len(); lo < n; lo += vector.DefaultBatchSize {
		if err := ctx.Canceled(); err != nil {
			return nil, err
		}
		if err := run.writeFrame(w, b.SliceRows(lo, min(lo+vector.DefaultBatchSize, n))); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	ctx.noteSpill(prof, run.bytes, event)
	return run, nil
}

// close removes every run of the set.
func (s *runSet) close() {
	for _, r := range s.runs {
		name := r.f.Name()
		r.f.Close()
		os.Remove(name)
	}
	s.runs = nil
}

// spillRun is one sorted run on disk.
type spillRun struct {
	f      *os.File
	schema *types.Schema
	bytes  int64 // written to the run (grant accounting)
}

func (r *spillRun) writeFrame(w *bufio.Writer, b *vector.Batch) error {
	var lenBuf [binary.MaxVarintLen64]byte
	for _, col := range b.Cols {
		block, err := encoding.EncodeBlock(encoding.None, col)
		if err != nil {
			return err
		}
		n := binary.PutUvarint(lenBuf[:], uint64(len(block)))
		if _, err := w.Write(lenBuf[:n]); err != nil {
			return err
		}
		if _, err := w.Write(block); err != nil {
			return err
		}
		r.bytes += int64(n + len(block))
	}
	return nil
}

// stream reads the run from its start, decoding a frame — a batch — per
// call; nil at the end. Every call is a reader of its own over the file, so
// the workers of a fan can each walk one run (see sorter.stream).
func (r *spillRun) stream() vector.Stream {
	rd := bufio.NewReaderSize(io.NewSectionReader(r.f, 0, r.bytes), 1<<16)
	var block []byte // read scratch: DecodeBlock copies what it keeps
	return func() (*vector.Batch, error) {
		cols := make([]*vector.Vector, r.schema.Len())
		for i := range cols {
			size, err := binary.ReadUvarint(rd)
			if err == io.EOF && i == 0 {
				return nil, nil
			}
			if err == nil && size > uint64(r.bytes) {
				err = fmt.Errorf("block of %d bytes in a run of %d", size, r.bytes)
			}
			if err == nil {
				if uint64(cap(block)) < size {
					block = make([]byte, size)
				}
				_, err = io.ReadFull(rd, block[:size])
			}
			if err == nil {
				cols[i], err = encoding.DecodeBlock(block[:size], r.schema.Col(i).Typ, false)
			}
			if err != nil {
				return nil, fmt.Errorf("exec: corrupt spill run: %w", err)
			}
		}
		return vector.NewBatch(cols...), nil
	}
}

// spillDir resolves the context's temp directory.
func spillDir(ctx *Ctx) string {
	if ctx.TempDir != "" {
		return ctx.TempDir
	}
	return os.TempDir()
}
