package textutil

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// TestFolderLowerMatchesToLower pins Folder.Lower (nil and warm) to
// strings.ToLower on arbitrary input.
func TestFolderLowerMatchesToLower(t *testing.T) {
	var f Folder
	check := func(s string) bool {
		want := strings.ToLower(s)
		if (*Folder)(nil).Lower(s) != want {
			return false
		}
		// Twice through the same folder: miss then hit.
		return f.Lower(s) == want && f.Lower(s) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestFolderLowerZeroCopy: already-lowercase input must come back as the
// identical string without touching the cache.
func TestFolderLowerZeroCopy(t *testing.T) {
	var f Folder
	for _, s := range []string{"", "flour", "1/2", "all-purpose"} {
		if got := f.Lower(s); got != s {
			t.Errorf("Lower(%q) = %q, want input unchanged", s, got)
		}
	}
	if f.m != nil {
		t.Errorf("lowercase inputs populated the cache: %v", f.m)
	}
}

// TestFolderBounded: overflowing the cache clears it but never changes
// results.
func TestFolderBounded(t *testing.T) {
	var f Folder
	for i := 0; i < maxFolderEntries+50; i++ {
		s := "Word" + strings.Repeat("X", i%7) + string(rune('A'+i%26))
		if got, want := f.Lower(s), strings.ToLower(s); got != want {
			t.Fatalf("Lower(%q) = %q, want %q", s, got, want)
		}
	}
	if len(f.m) > maxFolderEntries {
		t.Fatalf("folder grew past bound: %d entries", len(f.m))
	}
}

// TestAppendTokensFoldedMatchesTokenize pins the folded tokenizer (the
// scratch arena's entry point) to Tokenize on arbitrary input, with the
// folder reused across calls.
func TestAppendTokensFoldedMatchesTokenize(t *testing.T) {
	var f Folder
	var dst []string
	check := func(s string) bool {
		want := Tokenize(s)
		dst = AppendTokensFolded(dst[:0], s, &f)
		if len(want) == 0 && len(dst) == 0 {
			return true
		}
		return reflect.DeepEqual(dst, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, s := range []string{
		"2 Cups FLOUR", "½ Cup Sugar", "Boiling Water", "1 (8 OZ) Package",
	} {
		if !check(s) {
			t.Errorf("AppendTokensFolded(%q) = %q, want %q", s, dst, Tokenize(s))
		}
	}
}

// TestStripNonAlphaCleanFastPath: already-clean input must come back as
// the identical string (the zero-copy fast path).
func TestStripNonAlphaCleanFastPath(t *testing.T) {
	for _, s := range []string{"", "flour", "cup"} {
		if got := StripNonAlpha(s); got != s {
			t.Errorf("StripNonAlpha(%q) = %q, want unchanged", s, got)
		}
	}
	if got := StripNonAlpha("all-purpose"); got != "allpurpose" {
		t.Errorf("StripNonAlpha(all-purpose) = %q, want allpurpose", got)
	}
}

// TestInternerLookupBytes pins the byte-key probe to Lookup.
func TestInternerLookupBytes(t *testing.T) {
	in := NewInterner()
	a := in.Intern("flour")
	b := in.Intern("butter")
	if id, ok := in.LookupBytes([]byte("flour")); !ok || id != a {
		t.Errorf("LookupBytes(flour) = (%d, %v), want (%d, true)", id, ok, a)
	}
	if id, ok := in.LookupBytes([]byte("butter")); !ok || id != b {
		t.Errorf("LookupBytes(butter) = (%d, %v), want (%d, true)", id, ok, b)
	}
	if _, ok := in.LookupBytes([]byte("sugar")); ok {
		t.Error("LookupBytes(sugar) = hit, want miss")
	}
	if _, ok := in.LookupBytes(nil); ok {
		t.Error("LookupBytes(nil) = hit, want miss")
	}
}

// TestFolderExpandWarmZeroAllocs: a phrase with a fraction glyph is
// expanded once per Folder; repeats tokenize without allocating and
// give the same tokens as the uncached tokenizer.
func TestFolderExpandWarmZeroAllocs(t *testing.T) {
	var f Folder
	var dst []string
	const phrase = "1½ cups Sugar"
	want := Tokenize(phrase)
	dst = AppendTokensFolded(dst[:0], phrase, &f)
	if !reflect.DeepEqual(dst, want) {
		t.Fatalf("AppendTokensFolded(%q) = %q, want %q", phrase, dst, want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		dst = AppendTokensFolded(dst[:0], phrase, &f)
	})
	if allocs != 0 {
		t.Fatalf("warm glyph phrase allocates %v per tokenization, want 0", allocs)
	}
	for i := 0; i < maxFolderEntries+50; i++ {
		f.expand(fmt.Sprintf("%d½ cups", i))
	}
	if len(f.exp) > maxFolderEntries {
		t.Fatalf("expansion cache grew to %d entries, bound %d", len(f.exp), maxFolderEntries)
	}
	if !reflect.DeepEqual(dst, want) {
		t.Fatalf("tokens changed after the cache cleared: %q, want %q", dst, want)
	}
}
