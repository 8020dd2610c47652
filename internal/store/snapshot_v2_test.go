package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// reload round-trips a store through the current snapshot format.
func reload(t *testing.T, s *Store) *Store {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// sameCorpus asserts that two stores hold the same documents.
func sameCorpus(t *testing.T, got, want *Store) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len: %d want %d", got.Len(), want.Len())
	}
	for _, id := range want.IDs() {
		w, _ := want.Get(id)
		g, ok := got.Get(id)
		if !ok {
			t.Fatalf("document %q missing", id)
		}
		if g.XMLString() != w.XMLString() {
			t.Fatalf("document %q differs", id)
		}
	}
}

func TestSnapshotV2CarriesGeneration(t *testing.T) {
	s := corpus(t, 4)
	var buf bytes.Buffer
	if err := writeSnapshotEntries(&buf, 7, s.snapshot()); err != nil {
		t.Fatal(err)
	}
	loaded, gen, err := loadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 7 {
		t.Fatalf("generation %d want 7", gen)
	}
	sameCorpus(t, loaded, s)
}

// TestSnapshotRejectsXPC1: the unchecksummed XPC1 format had no deployed
// base and is no longer read; its magic fails like any other.
func TestSnapshotRejectsXPC1(t *testing.T) {
	var b bytes.Buffer
	b.WriteString("XPC1")
	putUvarint(&b, 0)
	if _, err := LoadSnapshot(bytes.NewReader(b.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("XPC1 stream: got %v, want bad magic", err)
	}
}

// writeSection appends payload and its CRC32-C, the way every XPC2 section
// ends.
func writeSection(b *bytes.Buffer, payload []byte) {
	b.Write(payload)
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], crc32.Checksum(payload, crcTable))
	b.Write(tmp[:])
}

// v2Header starts an XPC2 stream: magic plus a CRC-valid header claiming
// count documents.
func v2Header(count uint64) *bytes.Buffer {
	var b, sec bytes.Buffer
	b.WriteString(corpusMagicV2)
	putUvarint(&sec, 0) // generation
	putUvarint(&sec, count)
	writeSection(&b, sec.Bytes())
	return &b
}

// v2FrameWithSlack builds a one-document XPC2 stream whose document frame
// declares pad extra bytes, with a recomputed (valid!) frame CRC — so only
// the slack check can reject it.
func v2FrameWithSlack(t *testing.T, pad int) []byte {
	t.Helper()
	var doc bytes.Buffer
	if err := xmltree.MustParseString(`<r><c>x</c></r>`).WriteSnapshot(&doc); err != nil {
		t.Fatal(err)
	}
	b := v2Header(1)
	var sec bytes.Buffer
	putString(&sec, "padded")
	putUvarint(&sec, uint64(doc.Len()+pad))
	sec.Write(doc.Bytes())
	sec.Write(make([]byte, pad))
	writeSection(b, sec.Bytes())
	sec.Reset()
	sec.WriteString(corpusFooterMagic)
	putUvarint(&sec, 1)
	putUvarint(&sec, 0)
	writeSection(b, sec.Bytes())
	return b.Bytes()
}

func TestSnapshotV2SlackRejected(t *testing.T) {
	before := mSnapSlackBytes.Value()
	_, err := LoadSnapshot(bytes.NewReader(v2FrameWithSlack(t, 2)))
	if err == nil || !strings.Contains(err.Error(), "slack") {
		t.Fatalf("want slack rejection, got %v", err)
	}
	if got := mSnapSlackBytes.Value() - before; got != 2 {
		t.Fatalf("store.snapshot.slack_bytes grew by %d, want 2", got)
	}
	// Control: the same construction with zero padding loads.
	if _, err := LoadSnapshot(bytes.NewReader(v2FrameWithSlack(t, 0))); err != nil {
		t.Fatalf("zero-slack control must load: %v", err)
	}
}

// TestSnapshotHostileLengthClaims: counts and lengths read from the stream
// are claims; absurd ones must fail fast instead of committing the reader
// to huge allocations or scans.
func TestSnapshotHostileLengthClaims(t *testing.T) {
	// Absurd document count, CRC-valid so only the bound can reject.
	if _, err := LoadSnapshot(bytes.NewReader(v2Header(maxCorpusDocs + 1).Bytes())); err == nil ||
		!strings.Contains(err.Error(), "implausible document count") {
		t.Fatalf("hostile count: got %v", err)
	}
	// Absurd per-document length claim in a CRC-valid frame: the bound
	// must reject it before the reader copies (or allocates toward) it.
	b := v2Header(1)
	var sec bytes.Buffer
	putString(&sec, "evil")
	putUvarint(&sec, maxDocSnapLen+1)
	writeSection(b, sec.Bytes())
	if _, err := LoadSnapshot(bytes.NewReader(b.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "implausible document length") {
		t.Fatalf("hostile length: got %v", err)
	}
}

// TestSnapshotV2DetectsCorruption: any flipped bit in the stream must
// surface as an error — the CRCs leave no blind spots.
func TestSnapshotV2DetectsCorruption(t *testing.T) {
	s := corpus(t, 3)
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for i := len(corpusMagicV2); i < len(valid); i++ {
		mut := bytes.Clone(valid)
		mut[i] ^= 0x01
		if _, err := LoadSnapshot(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at offset %d loaded cleanly", i)
		}
	}
}

// TestSnapshotV2DetectsTruncation: the footer makes every truncation —
// even one cutting exactly at a frame boundary — detectable.
func TestSnapshotV2DetectsTruncation(t *testing.T) {
	s := corpus(t, 3)
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for cut := 0; cut < len(valid); cut++ {
		if _, err := LoadSnapshot(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation to %d of %d bytes loaded cleanly", cut, len(valid))
		}
	}
	// Trailing garbage after a complete stream is equally rejected.
	if _, err := LoadSnapshot(bytes.NewReader(append(bytes.Clone(valid), 0))); err == nil {
		t.Fatal("trailing byte after footer loaded cleanly")
	}
}

func TestSaveSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.snap")
	s := corpus(t, 6)
	if err := s.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	loaded, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameCorpus(t, loaded, s)

	// Overwriting an existing snapshot is equally atomic.
	if err := s.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if loaded, err = LoadSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	sameCorpus(t, loaded, s)
}

func TestStoreReplaceSwapsAtomically(t *testing.T) {
	s := New()
	if _, err := s.Replace("a", xmltree.MustParseString(`<old/>`)); err != nil {
		t.Fatal(err)
	}
	replaced, err := s.Replace("a", xmltree.MustParseString(`<new/>`))
	if err != nil {
		t.Fatal(err)
	}
	if !replaced {
		t.Fatal("second Replace must report displacement")
	}
	d, _ := s.Get("a")
	if got := d.XMLString(); !strings.Contains(got, "new") {
		t.Fatalf("got %q", got)
	}
	if _, err := s.Replace("", xmltree.MustParseString(`<x/>`)); err == nil {
		t.Fatal("empty ID must fail")
	}
	if _, err := s.Replace("b", nil); err == nil {
		t.Fatal("nil document must fail")
	}
}
