package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/xmltree"
)

// Corpus snapshots persist a whole store: the per-document binary snapshot
// format of internal/xmltree, framed with document IDs. Loading a corpus
// rebuilds every document with all evaluation indexes, so a snapshot round
// trip is the cheap preparation path for batch serving.
//
// The "XPC2" format is self-verifying: every section carries a CRC32-C,
// the header carries the corpus generation (the durability layer's
// compaction counter), and a self-describing footer closes the stream so
// truncation is always detected. Layout (integers are unsigned varints,
// strings length-prefixed, CRCs fixed 4-byte little-endian CRC32-C):
//
//	header    magic "XPC2", generation, docCount, crc(varints)
//	document  id, snapLen, snapshot bytes (xmltree "XPT1"), crc(frame)
//	footer    magic "XPE2", docCount, generation, crc(magic+varints)
//
// Each document CRC covers the whole frame — ID, length varint and
// snapshot bytes — so a flipped bit anywhere is caught before the decoded
// document can enter a store. The reader also rejects slack: snapLen must
// equal exactly what the document decoder consumed (rejected slack is
// counted into the store.snapshot.slack_bytes metric).
const (
	corpusMagicV2     = "XPC2"
	corpusFooterMagic = "XPE2"
)

// maxCorpusDocs bounds the document count a snapshot may claim.
const maxCorpusDocs = 1 << 24

// maxDocSnapLen bounds one document's snapshot region. Like the string cap
// of the xmltree snapshot decoder it is a plausibility bound, not a quota: a
// hostile header claiming more fails immediately instead of driving a
// gigantic allocation or an unbounded stream scan.
const maxDocSnapLen = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Snapshot and WAL instruments (process-wide).
var (
	mSnapSaves      = metrics.Default().Counter("store.snapshot.saves")
	mSnapSaveNs     = metrics.Default().Histogram("store.snapshot.save_ns")
	mSnapLoads      = metrics.Default().Counter("store.snapshot.loads")
	mSnapLoadNs     = metrics.Default().Histogram("store.snapshot.load_ns")
	mSnapBytes      = metrics.Default().Gauge("store.snapshot.bytes")
	mSnapSlackBytes = metrics.Default().Counter("store.snapshot.slack_bytes")
)

// putUvarint appends an unsigned varint to the buffer.
func putUvarint(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

// putString appends a length-prefixed string to the buffer.
func putString(b *bytes.Buffer, s string) {
	putUvarint(b, uint64(len(s)))
	b.WriteString(s)
}

// writeCRC appends the section checksum that closes every XPC2 section.
func writeCRC(w *bufio.Writer, sum uint32) error {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], sum)
	_, err := w.Write(tmp[:])
	return err
}

// WriteSnapshot serializes the whole corpus in sorted-ID order, in the
// current XPC2 format with generation 0. The durability layer uses
// writeSnapshotEntries directly to stamp its compaction generation.
//
//xpathlint:deterministic
func (s *Store) WriteSnapshot(w io.Writer) error {
	return writeSnapshotEntries(w, 0, s.snapshot())
}

// writeSnapshotEntries emits the XPC2 stream for a point-in-time entry
// listing (already sorted by the caller).
func writeSnapshotEntries(w io.Writer, generation uint64, items []entry) error {
	t0 := trace.Now()
	bw := bufio.NewWriter(w)
	var section bytes.Buffer

	// Header.
	putUvarint(&section, generation)
	putUvarint(&section, uint64(len(items)))
	if _, err := bw.WriteString(corpusMagicV2); err != nil {
		return err
	}
	if _, err := bw.Write(section.Bytes()); err != nil {
		return err
	}
	if err := writeCRC(bw, crc32.Checksum(section.Bytes(), crcTable)); err != nil {
		return err
	}

	// Document frames.
	var docBuf bytes.Buffer
	total := int64(len(corpusMagicV2) + section.Len() + 4)
	for _, it := range items {
		docBuf.Reset()
		if err := it.doc.WriteSnapshot(&docBuf); err != nil {
			return fmt.Errorf("store: snapshot %q: %w", it.id, err)
		}
		if docBuf.Len() > maxDocSnapLen {
			return fmt.Errorf("store: snapshot %q: document snapshot is %d bytes, above the %d cap", it.id, docBuf.Len(), maxDocSnapLen)
		}
		section.Reset()
		putString(&section, it.id)
		putUvarint(&section, uint64(docBuf.Len()))
		section.Write(docBuf.Bytes())
		if _, err := bw.Write(section.Bytes()); err != nil {
			return err
		}
		if err := writeCRC(bw, crc32.Checksum(section.Bytes(), crcTable)); err != nil {
			return err
		}
		total += int64(section.Len() + 4)
	}

	// Footer: repeats the header facts so a truncated stream can never
	// pass for a complete one.
	section.Reset()
	section.WriteString(corpusFooterMagic)
	putUvarint(&section, uint64(len(items)))
	putUvarint(&section, generation)
	if _, err := bw.Write(section.Bytes()); err != nil {
		return err
	}
	if err := writeCRC(bw, crc32.Checksum(section.Bytes(), crcTable)); err != nil {
		return err
	}
	total += int64(section.Len() + 4)
	if err := bw.Flush(); err != nil {
		return err
	}
	mSnapSaves.Add(1)
	mSnapSaveNs.Observe(trace.Now() - t0)
	mSnapBytes.Set(total)
	return nil
}

// LoadSnapshot reads a corpus written by WriteSnapshot into a fresh store.
func LoadSnapshot(r io.Reader) (*Store, error) {
	s, _, err := loadSnapshot(r)
	return s, err
}

// loadSnapshot reads a corpus, returning the generation the snapshot
// carries.
func loadSnapshot(r io.Reader) (*Store, uint64, error) {
	t0 := trace.Now()
	br := bufio.NewReader(r)
	magic := make([]byte, len(corpusMagicV2))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, 0, fmt.Errorf("store: snapshot: %w", err)
	}
	if string(magic) != corpusMagicV2 {
		return nil, 0, fmt.Errorf("store: snapshot: bad magic %q", magic)
	}
	s, gen, err := loadSnapshotV2(br)
	if err != nil {
		return nil, 0, err
	}
	mSnapLoads.Add(1)
	mSnapLoadNs.Observe(trace.Now() - t0)
	return s, gen, nil
}

// crcReader accumulates a CRC32-C over every byte read through it, so
// section checksums verify against exactly the bytes the decoder consumed.
type crcReader struct {
	br  *bufio.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	c.crc = crc32.Update(c.crc, crcTable, p[:n])
	return n, err
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err != nil {
		return 0, err
	}
	var one [1]byte
	one[0] = b
	c.crc = crc32.Update(c.crc, crcTable, one[:])
	return b, nil
}

func (c *crcReader) reset() { c.crc = 0 }

// expectCRC reads the stored section checksum (not CRC-accumulated) and
// compares it against what the reader computed.
func (c *crcReader) expectCRC(section string) error {
	var tmp [4]byte
	if _, err := io.ReadFull(c.br, tmp[:]); err != nil {
		return fmt.Errorf("store: %s checksum: %w", section, err)
	}
	if got, want := c.crc, binary.LittleEndian.Uint32(tmp[:]); got != want {
		return fmt.Errorf("store: %s checksum mismatch (computed %08x, stored %08x)", section, got, want)
	}
	return nil
}

// countingReader counts bytes read through it; with a bufio consumer on
// top, consumed = counted − buffered gives exact decode offsets.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// readString reads a length-prefixed string through the CRC reader,
// bounded by maxLen.
func readString(c *crcReader, maxLen uint64, what string) (string, error) {
	n, err := binary.ReadUvarint(c)
	if err != nil {
		return "", fmt.Errorf("store: snapshot: %s length: %w", what, err)
	}
	if n > maxLen {
		return "", fmt.Errorf("store: snapshot: implausible %s length %d", what, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		return "", fmt.Errorf("store: snapshot: %s: %w", what, err)
	}
	return string(buf), nil
}

// loadSnapshotV2 reads the checksummed XPC2 body after the magic.
func loadSnapshotV2(br *bufio.Reader) (*Store, uint64, error) {
	// Section checksums cover varints and payload bytes only — the magics
	// are checked literally.
	cr := &crcReader{br: br}
	generation, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, 0, fmt.Errorf("store: snapshot: generation: %w", err)
	}
	count, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, 0, fmt.Errorf("store: snapshot: document count: %w", err)
	}
	if count > maxCorpusDocs {
		return nil, 0, fmt.Errorf("store: snapshot: implausible document count %d", count)
	}
	if err := cr.expectCRC("snapshot header"); err != nil {
		return nil, 0, err
	}

	s := New()
	var docBuf bytes.Buffer
	for i := uint64(0); i < count; i++ {
		cr.reset()
		id, err := readString(cr, maxIDLen, "document ID")
		if err != nil {
			return nil, 0, fmt.Errorf("store: snapshot: document %d: %w", i, err)
		}
		n, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, 0, fmt.Errorf("store: snapshot: %q: length: %w", id, err)
		}
		if n > maxDocSnapLen {
			return nil, 0, fmt.Errorf("store: snapshot: %q: implausible document length %d", id, n)
		}
		// CopyN grows the buffer with the bytes actually present, so the
		// length claim alone cannot drive a huge allocation.
		docBuf.Reset()
		if _, err := io.CopyN(&docBuf, cr, int64(n)); err != nil {
			return nil, 0, fmt.Errorf("store: snapshot: %q: %w", id, err)
		}
		if err := cr.expectCRC(fmt.Sprintf("snapshot document %q", id)); err != nil {
			return nil, 0, err
		}
		doc, consumed, err := xmltree.LoadSnapshotCounted(bytes.NewReader(docBuf.Bytes()), xmltree.DefaultLimits())
		if err != nil {
			return nil, 0, fmt.Errorf("store: snapshot: %q: %w", id, err)
		}
		// XPC2 writers emit exact frames; slack means the frame was not
		// produced by WriteSnapshot, so reject instead of tolerating.
		if slack := int64(n) - consumed; slack != 0 {
			mSnapSlackBytes.Add(slack)
			return nil, 0, fmt.Errorf("store: snapshot: %q: %d slack bytes in document frame", id, slack)
		}
		if err := s.Add(id, doc); err != nil {
			return nil, 0, err
		}
	}

	// Footer: must match the header's facts exactly.
	cr.reset()
	ftMagic := make([]byte, len(corpusFooterMagic))
	if _, err := io.ReadFull(cr, ftMagic); err != nil {
		return nil, 0, fmt.Errorf("store: snapshot: footer: %w", err)
	}
	if string(ftMagic) != corpusFooterMagic {
		return nil, 0, fmt.Errorf("store: snapshot: bad footer magic %q", ftMagic)
	}
	ftCount, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, 0, fmt.Errorf("store: snapshot: footer count: %w", err)
	}
	ftGen, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, 0, fmt.Errorf("store: snapshot: footer generation: %w", err)
	}
	if err := cr.expectCRC("snapshot footer"); err != nil {
		return nil, 0, err
	}
	if ftCount != count || ftGen != generation {
		return nil, 0, fmt.Errorf("store: snapshot: footer disagrees with header (count %d vs %d, generation %d vs %d)",
			ftCount, count, ftGen, generation)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, 0, fmt.Errorf("store: snapshot: trailing data after footer")
	}
	return s, generation, nil
}

// SaveSnapshotFile writes the corpus snapshot crash-safely: into a
// temporary sibling first, flushed and fsynced, then atomically renamed
// over path, with the directory fsynced after the rename. A crash at any
// point leaves either the old file or the new one — never a torn mix.
func (s *Store) SaveSnapshotFile(path string) error {
	return saveSnapshotFile(osFS{}, path, func(w io.Writer) error { return s.WriteSnapshot(w) })
}

// saveSnapshotFile is the atomic-install write path shared by
// SaveSnapshotFile and the durability layer's Compact.
func saveSnapshotFile(fs fsys, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	faultinject.Hit("store.snapshot.rename")
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}

// LoadSnapshotFile reads a corpus snapshot file written by
// SaveSnapshotFile (or any WriteSnapshot output on disk).
func LoadSnapshotFile(path string) (*Store, error) {
	f, err := osFS{}.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadSnapshot(f)
}
