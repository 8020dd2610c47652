package store

import (
	"bytes"
	"testing"

	"repro/internal/xmltree"
)

// FuzzLoadSnapshot drives the corpus loader — the "XPC2" framing with
// section checksums and the inner per-document "XPT1" streams — with
// truncated and corrupted bytes: every outcome but (valid store | error) —
// a panic, a runaway allocation — is a bug. The per-document layer has its
// own fuzzer in internal/xmltree; this one exercises the framing, the CRCs,
// the ID strings and the length-bounded document regions.
func FuzzLoadSnapshot(f *testing.F) {
	s := New()
	for _, id := range []string{"a", "b"} {
		if err := s.Add(id, xmltree.MustParseString(`<r x="1"><c>hi</c></r>`)); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	// A second corpus with a non-zero generation, so the seeds also carry
	// header and footer values other than 0.
	one := New()
	if err := one.Add("doc", xmltree.MustParseString(`<a><b id="7">some text</b><b/></a>`)); err != nil {
		f.Fatal(err)
	}
	var stamped bytes.Buffer
	if err := writeSnapshotEntries(&stamped, 7, one.snapshot()); err != nil {
		f.Fatal(err)
	}
	for _, valid := range [][]byte{buf.Bytes(), stamped.Bytes()} {
		f.Add(valid)
		for cut := 1; cut < len(valid); cut += 3 {
			f.Add(valid[:cut])
		}
		for i := 0; i < len(valid); i += 2 {
			mut := bytes.Clone(valid)
			mut[i] ^= 0xff
			f.Add(mut)
		}
	}
	f.Add([]byte(corpusMagicV2))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := LoadSnapshot(bytes.NewReader(data))
		if err == nil && st == nil {
			t.Fatal("nil store without error")
		}
	})
}
