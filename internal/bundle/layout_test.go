package bundle

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// goldenBundles builds fixed bundles covering every kind, nesting and
// non-ASCII keys. Their String and Checksum are pinned below as literals
// taken from the original map-backed Bundle, so any change of storage
// layout must keep the canonical rendering byte-identical.
func goldenBundles() map[string]*Bundle {
	every := New()
	every.PutString("s", "héllo \"quoted\"\n")
	every.PutInt("i", -42)
	every.PutFloat("f", 3.25)
	every.PutFloat("tiny", 1e-300)
	every.PutFloat("negzero", math.Copysign(0, -1))
	every.PutBool("t", true)
	every.PutBool("b", false)
	every.PutStringSlice("ss", []string{"a", "", "ü"})
	every.PutStringSlice("empty", nil)
	every.PutIntSlice("is", []int64{3, -1, math.MaxInt64})

	inner := New()
	inner.PutBool("visible", true)
	inner.PutString("text", "draft")
	inner.PutInt("cursor", 5)
	deep := New()
	deep.PutBundle("leaf", New())
	deep.PutIntSlice("ids", []int64{1})
	inner.PutBundle("child", deep)
	nested := New()
	nested.PutBundle("view:10", inner)
	nested.PutBundle("view:9", inner.Clone())
	nested.PutString("app:title", "x")

	unicode := New()
	unicode.PutInt("日本語", 1)
	unicode.PutInt("émoji😀", 2)
	unicode.PutInt("Zeta", 3)
	unicode.PutInt("alpha", 4)
	unicode.PutString("", "empty key")

	return map[string]*Bundle{"empty": New(), "every": every, "nested": nested, "unicode": unicode}
}

func TestCanonicalRenderingPinned(t *testing.T) {
	want := map[string]struct {
		str string
		sum uint64
	}{
		"empty":   {`{}`, 0x8f44b07b5901a25},
		"every":   {`{b=false, empty=[], f=3.25, i=-42, is=[3 -1 9223372036854775807], negzero=-0, s="héllo \"quoted\"\n", ss=["a" "" "ü"], t=true, tiny=1e-300}`, 0x8cd6489deecb0e4f},
		"nested":  {`{app:title="x", view:10={child={ids=[1], leaf={}}, cursor=5, text="draft", visible=true}, view:9={child={ids=[1], leaf={}}, cursor=5, text="draft", visible=true}}`, 0xbe5183ddbb1b64b5},
		"unicode": {`{="empty key", Zeta=3, alpha=4, émoji😀=2, 日本語=1}`, 0xa8539ec58163857a},
	}
	for name, b := range goldenBundles() {
		w := want[name]
		if got := b.String(); got != w.str {
			t.Errorf("%s: String\n got %s\nwant %s", name, got, w.str)
		}
		if got := b.Checksum(); got != w.sum {
			t.Errorf("%s: Checksum = %#x, want %#x", name, got, w.sum)
		}
	}
}

func TestInsertionOrderIndependenceProperty(t *testing.T) {
	inner := New()
	inner.PutBool("visible", true)
	// Each op puts one fixed key/value; applying them in any order must
	// give the same bundle.
	ops := []func(*Bundle){
		func(b *Bundle) { b.PutString("text", "ab") },
		func(b *Bundle) { b.PutInt("cursor", 2) },
		func(b *Bundle) { b.PutFloat("alpha", 0.5) },
		func(b *Bundle) { b.PutBool("checked", true) },
		func(b *Bundle) { b.PutStringSlice("items", []string{"x", "y"}) },
		func(b *Bundle) { b.PutIntSlice("sel", []int64{4, 1}) },
		func(b *Bundle) { b.PutBundle("view:7", inner.Clone()) },
		func(b *Bundle) { b.PutBundle("view:12", inner.Clone()) },
		func(b *Bundle) { b.PutString("ключ", "значение") },
		func(b *Bundle) { b.PutInt("Z", -1) },
	}
	build := func(order []int) *Bundle {
		b := New()
		for _, i := range order {
			ops[i](b)
		}
		return b
	}
	identity := make([]int, len(ops))
	for i := range identity {
		identity[i] = i
	}
	ref := build(identity)

	// same reports whether b is indistinguishable from ref by every
	// canonical observer.
	same := func(b *Bundle) bool {
		rk, bk := ref.Keys(), b.Keys()
		if len(rk) != len(bk) {
			return false
		}
		for i := range rk {
			if rk[i] != bk[i] {
				return false
			}
		}
		return b.Equal(ref) && ref.Equal(b) && b.String() == ref.String() && b.Checksum() == ref.Checksum()
	}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := rng.Perm(len(ops))
		b := build(order)
		if !same(b) || !same(b.Clone()) {
			return false
		}

		// An extra key put then removed leaves no trace.
		extra := build(order)
		extra.PutInt("zz-extra", 9)
		extra.PutInt("00-extra", 9)
		extra.Remove("zz-extra")
		extra.Remove("00-extra")
		extra.Remove("absent")
		if !same(extra) {
			return false
		}

		// Merging two disjoint halves, in either direction, rebuilds it.
		cut := rng.Intn(len(order) + 1)
		lo, hi := build(order[:cut]), build(order[cut:])
		lo.Merge(hi)
		hi2 := build(order[cut:])
		hi2.Merge(build(order[:cut]))
		return same(lo) && same(hi2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
