// Package spill is the shared run codec for operator state that overflows
// memory onto the distributed file system: the MR-mode shuffle
// materializations of package dag and the memory-governed spills of the
// blocking exec operators (external sort runs, Grace hash-join partitions,
// hash-aggregate partials) all serialize rows through it.
//
// A run file is a sequence of self-framed blocks, each a varint length
// prefix followed by an EncodeRows payload of a bounded number of rows.
// The DFS is write-once, so a Writer buffers its blocks and publishes the
// file atomically on Close; a Reader streams the file back one block at a
// time through ranged reads, which is what lets a k-way merge over many
// runs hold only one block per run in memory.
package spill

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/dfs"
	"repro/internal/types"
)

// EncodeRows serializes rows for a shuffle/spill file: per datum a kind
// byte (0xFF marks NULL), then a fixed or length-prefixed payload.
func EncodeRows(rows [][]types.Datum) []byte {
	return encodeRows(nil, len(rows), func(i int) []types.Datum { return rows[i] })
}

// encodeRows appends the EncodeRows payload of n rows, row i being
// row(i), to out.
func encodeRows(out []byte, n int, row func(i int) []types.Datum) []byte {
	var scratch [binary.MaxVarintLen64]byte
	putVar := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		out = append(out, scratch[:n]...)
	}
	putVar(uint64(n))
	for i := 0; i < n; i++ {
		row := row(i)
		putVar(uint64(len(row)))
		for _, d := range row {
			if d.Null {
				out = append(out, 0xFF, byte(d.K))
				continue
			}
			out = append(out, byte(d.K))
			switch d.K {
			case types.Float64:
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(d.F))
				out = append(out, buf[:]...)
			case types.String:
				putVar(uint64(len(d.S)))
				out = append(out, d.S...)
			case types.Decimal:
				putVar(uint64(zigzag(d.I)))
				putVar(uint64(d.DecimalScale()))
			default:
				putVar(zigzag(d.I))
			}
		}
	}
	return out
}

// DecodeRows is the inverse of EncodeRows. Every row is its own
// allocation, so a caller may keep any row without pinning the others.
func DecodeRows(data []byte) ([][]types.Datum, error) {
	var rows [][]types.Datum
	err := DecodeRowsFunc(data, func(row []types.Datum) {
		rows = append(rows, append(make([]types.Datum, 0, len(row)), row...))
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// DecodeRowsFunc decodes an EncodeRows payload, calling fn once per row in
// order. The row is a buffer reused for the next row: fn copies what it
// keeps.
func DecodeRowsFunc(data []byte, fn func(row []types.Datum)) error {
	pos := 0
	getVar := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("spill: corrupt run at %d", pos)
		}
		pos += n
		return v, nil
	}
	nRows, err := getVar()
	if err != nil {
		return err
	}
	var row []types.Datum
	for r := uint64(0); r < nRows; r++ {
		nCols, err := getVar()
		if err != nil {
			return err
		}
		if uint64(cap(row)) < nCols {
			row = make([]types.Datum, nCols)
		}
		row = row[:nCols]
		for c := range row {
			if pos >= len(data) {
				return fmt.Errorf("spill: truncated run")
			}
			k := data[pos]
			pos++
			if k == 0xFF {
				if pos >= len(data) {
					return fmt.Errorf("spill: truncated run")
				}
				row[c] = types.NullOf(types.Kind(data[pos]))
				pos++
				continue
			}
			kind := types.Kind(k)
			switch kind {
			case types.Float64:
				if pos+8 > len(data) {
					return fmt.Errorf("spill: truncated double")
				}
				bits := binary.LittleEndian.Uint64(data[pos:])
				pos += 8
				row[c] = types.NewDouble(math.Float64frombits(bits))
			case types.String:
				l, err := getVar()
				if err != nil {
					return err
				}
				if pos+int(l) > len(data) {
					return fmt.Errorf("spill: truncated string")
				}
				row[c] = types.NewString(string(data[pos : pos+int(l)]))
				pos += int(l)
			case types.Decimal:
				u, err := getVar()
				if err != nil {
					return err
				}
				sc, err := getVar()
				if err != nil {
					return err
				}
				row[c] = types.NewDecimal(unzigzag(u), int(sc))
			default:
				u, err := getVar()
				if err != nil {
					return err
				}
				row[c] = types.Datum{K: kind, I: unzigzag(u)}
			}
		}
		fn(row)
	}
	return nil
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Writer accumulates framed row blocks for one run file. The DFS is
// write-once, so blocks buffer in memory until Close publishes the file —
// a run is bounded by the spiller's memory budget, so the buffered
// encoding is at most one budget's worth of bytes.
type Writer struct {
	fs      *dfs.FS
	path    string
	buf     []byte
	scratch []byte // AppendFunc's encode buffer, reused across blocks
	rows    int
}

// NewWriter starts a run file at path.
func NewWriter(fs *dfs.FS, path string) *Writer {
	return &Writer{fs: fs, path: path}
}

// Append frames one block of rows.
func (w *Writer) Append(rows [][]types.Datum) {
	if len(rows) == 0 {
		return
	}
	w.frame(EncodeRows(rows), len(rows))
}

// AppendFunc frames one block of n rows of width datums each, encoding row
// i right after fill(i, row) writes it into a buffer reused for every row
// — the block is never held as datums.
func (w *Writer) AppendFunc(n, width int, fill func(i int, row []types.Datum)) {
	if n == 0 {
		return
	}
	buf := make([]types.Datum, width)
	w.frame(encodeRows(w.scratch[:0], n, func(i int) []types.Datum {
		fill(i, buf)
		return buf
	}), n)
}

// frame appends one encoded block with its length prefix. The payload may
// alias w.scratch, which is kept for the next AppendFunc.
func (w *Writer) frame(payload []byte, rows int) {
	var pre [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(pre[:], uint64(len(payload)))
	w.buf = append(w.buf, pre[:n]...)
	w.buf = append(w.buf, payload...)
	w.rows += rows
	w.scratch = payload
}

// Rows returns the number of rows appended so far.
func (w *Writer) Rows() int { return w.rows }

// Path returns the run file's path.
func (w *Writer) Path() string { return w.path }

// Close publishes the run file and returns its size in bytes. A run with
// zero rows writes nothing and reports an empty file without touching the
// DFS.
func (w *Writer) Close() (int64, error) {
	if len(w.buf) == 0 {
		return 0, nil
	}
	if err := w.fs.WriteFile(w.path, w.buf); err != nil {
		return 0, err
	}
	n := int64(len(w.buf))
	w.buf = nil
	return n, nil
}

// ReadChunk is the granularity of the Reader's ranged reads: blocks are
// parsed out of chunk-sized buffers, so a small run file costs one read
// (seek) total and a large one costs one read per chunk — never one (or
// two) per block, which matters under a per-read seek cost model with many
// runs on disk.
const ReadChunk = 64 << 10

// Reader streams a run file back block by block through buffered ranged
// reads. It holds at most one chunk (plus one block straddling a chunk
// boundary) in memory.
type Reader struct {
	fs   *dfs.FS
	path string
	size int64
	buf  []byte
	off  int64 // file offset of buf[0]
	pos  int   // parse position within buf
}

// OpenReader opens a run file for streaming.
func OpenReader(fs *dfs.FS, path string) (*Reader, error) {
	info, err := fs.Stat(path)
	if err != nil {
		return nil, err
	}
	return &Reader{fs: fs, path: path, size: info.Size}, nil
}

// ensure makes at least n parseable bytes available at pos, reading the
// next chunk(s) when the buffer runs short. It reports how many bytes are
// available (possibly fewer than n at end of file).
func (r *Reader) ensure(n int) (int, error) {
	for len(r.buf)-r.pos < n {
		nextOff := r.off + int64(len(r.buf))
		if nextOff >= r.size {
			break
		}
		want := int64(ReadChunk)
		if n > ReadChunk {
			want = int64(n)
		}
		chunk, err := r.fs.ReadAt(r.path, nextOff, want)
		if err != nil {
			return 0, err
		}
		// Drop the consumed prefix so memory stays one chunk-ish deep.
		r.buf = append(r.buf[r.pos:], chunk...)
		r.off = nextOff - int64(len(r.buf)-len(chunk))
		r.pos = 0
	}
	return len(r.buf) - r.pos, nil
}

// Next returns the next block of rows, or nil at end of run.
func (r *Reader) Next() ([][]types.Datum, error) {
	block, err := r.nextBlock()
	if block == nil || err != nil {
		return nil, err
	}
	return DecodeRows(block)
}

// NextFunc decodes the next block through DecodeRowsFunc, calling fn per
// row with a reused buffer; false means the run is exhausted.
func (r *Reader) NextFunc(fn func(row []types.Datum)) (bool, error) {
	block, err := r.nextBlock()
	if block == nil || err != nil {
		return false, err
	}
	return true, DecodeRowsFunc(block, fn)
}

// nextBlock returns the next block's payload (valid until the next read),
// or nil at end of run.
func (r *Reader) nextBlock() ([]byte, error) {
	avail, err := r.ensure(binary.MaxVarintLen64)
	if err != nil {
		return nil, err
	}
	if avail == 0 {
		return nil, nil
	}
	payloadLen, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return nil, fmt.Errorf("spill: corrupt block frame at %d in %s", r.off+int64(r.pos), r.path)
	}
	r.pos += n
	if avail, err = r.ensure(int(payloadLen)); err != nil {
		return nil, err
	}
	if avail < int(payloadLen) {
		return nil, fmt.Errorf("spill: truncated block at %d in %s", r.off+int64(r.pos), r.path)
	}
	block := r.buf[r.pos : r.pos+int(payloadLen)]
	r.pos += int(payloadLen)
	return block, nil
}
