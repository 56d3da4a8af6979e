package storage

import (
	"bytes"
	"io"
	"testing"
)

// TestExtentsReadsTheRangesBackToBack: a view of two ranges of a file reads
// them as one file — across the seam, short at its end with io.EOF — and
// refuses writes and syncs without touching the file.
func TestExtentsReadsTheRangesBackToBack(t *testing.T) {
	fs := NewMemFS()
	f, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("0123456789abcdefghij")
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	v := Extents(f, Extent{Off: 2, Len: 4}, Extent{Off: 15, Len: 3}) // "2345" + "fgh"
	if n, _ := v.Size(); n != 7 {
		t.Fatalf("Size = %d, want 7", n)
	}
	for _, tc := range []struct {
		off  int64
		n    int
		want string
		eof  bool
	}{
		{0, 7, "2345fgh", false},
		{3, 2, "5f", false},
		{4, 3, "fgh", false},
		{5, 4, "gh", true},
		{7, 1, "", true},
	} {
		buf := make([]byte, tc.n)
		got, err := v.ReadAt(buf, tc.off)
		if string(buf[:got]) != tc.want || (err == io.EOF) != tc.eof || (err != nil && err != io.EOF) {
			t.Fatalf("ReadAt(%d bytes at %d) = %q, %v; want %q, eof %v", tc.n, tc.off, buf[:got], err, tc.want, tc.eof)
		}
	}
	if _, err := v.WriteAt([]byte("x"), 0); err == nil {
		t.Fatal("a write through the view succeeded")
	}
	if err := v.Sync(); err == nil {
		t.Fatal("a sync through the view succeeded")
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	after := make([]byte, len(data))
	if _, err := f.ReadAt(after, 0); err != nil || !bytes.Equal(after, data) {
		t.Fatalf("the file behind the view changed or closed: %q, %v", after, err)
	}
}
