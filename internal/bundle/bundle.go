// Package bundle reimplements the Android Bundle: the typed key/value
// container that carries saved instance state between an activity that is
// going away and its replacement. RCHDroid funnels all shadow→sunny state
// transfer through a Bundle, exactly as onSaveInstanceState does on stock
// Android, so fidelity here matters for the Table 3 / Table 5 results
// (state survives iff it was placed in a view or in the bundle).
package bundle

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Kind identifies the dynamic type of a stored value.
type Kind uint8

// The supported value kinds. They mirror the Bundle putX/getX families the
// paper's migration path exercises (text, numbers, flags, nested state for
// view subtrees and string lists for adapters).
const (
	KindInvalid Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
	KindStringSlice
	KindIntSlice
	KindBundle
)

func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindStringSlice:
		return "[]string"
	case KindIntSlice:
		return "[]int"
	case KindBundle:
		return "bundle"
	default:
		return "invalid"
	}
}

// entry is one key/value pair. Scalars share one word (an int, a
// float's bits or a bool as 0/1) and strings their own field, so the
// common kinds never allocate; slices and nested bundles go in ref.
type entry struct {
	key  string
	str  string
	ref  any // []string, []int64 or *Bundle
	word int64
	kind Kind
}

func (e *entry) float() float64  { return math.Float64frombits(uint64(e.word)) }
func (e *entry) boolean() bool   { return e.word != 0 }
func (e *entry) strs() []string  { return e.ref.([]string) }
func (e *entry) ints() []int64   { return e.ref.([]int64) }
func (e *entry) nested() *Bundle { return e.ref.(*Bundle) }

// Bundle is a typed key/value map. Create one with New. Reads on a nil
// *Bundle are safe and see an empty bundle (a missing nested section
// reads as all-defaults, like a corrupted parcel).
// Bundles are not safe for concurrent use — like the Android original they
// live on a single (virtual) UI thread.
type Bundle struct {
	// entries is sorted by key, so iteration is deterministic without a
	// sort and two bundles compare in one linear walk.
	entries []entry
}

// New returns an empty Bundle.
func New() *Bundle {
	return &Bundle{}
}

// find returns the index of key, or the index it would be inserted at.
func (b *Bundle) find(key string) (int, bool) {
	lo, hi := 0, len(b.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.entries[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(b.entries) && b.entries[lo].key == key
}

// lookup returns the entry under key; safe on a nil receiver.
func (b *Bundle) lookup(key string) *entry {
	if b == nil {
		return nil
	}
	if i, ok := b.find(key); ok {
		return &b.entries[i]
	}
	return nil
}

// put stores e under e.key, replacing any existing value. Keys arriving
// in ascending order (a view tree saved in id order) append.
func (b *Bundle) put(e entry) {
	n := len(b.entries)
	if n == 0 || b.entries[n-1].key < e.key {
		b.entries = append(b.entries, e)
		return
	}
	i, ok := b.find(e.key)
	if ok {
		b.entries[i] = e
		return
	}
	b.entries = append(b.entries, entry{})
	copy(b.entries[i+1:], b.entries[i:])
	b.entries[i] = e
}

// Len returns the number of keys, not counting keys inside nested bundles.
func (b *Bundle) Len() int {
	if b == nil {
		return 0
	}
	return len(b.entries)
}

// IsEmpty reports whether the bundle holds no keys.
func (b *Bundle) IsEmpty() bool { return b.Len() == 0 }

// Keys returns the keys in sorted order, for deterministic iteration.
func (b *Bundle) Keys() []string {
	if b == nil {
		return nil
	}
	keys := make([]string, len(b.entries))
	for i := range b.entries {
		keys[i] = b.entries[i].key
	}
	return keys
}

// Has reports whether key is present with any kind.
func (b *Bundle) Has(key string) bool { return b.lookup(key) != nil }

// KindOf returns the kind stored under key, or KindInvalid if absent.
func (b *Bundle) KindOf(key string) Kind {
	if e := b.lookup(key); e != nil {
		return e.kind
	}
	return KindInvalid
}

// Remove deletes key if present.
func (b *Bundle) Remove(key string) {
	if i, ok := b.find(key); ok {
		last := len(b.entries) - 1
		copy(b.entries[i:], b.entries[i+1:])
		b.entries[last] = entry{}
		b.entries = b.entries[:last]
	}
}

// Clear removes all keys.
func (b *Bundle) Clear() {
	clear(b.entries)
	b.entries = b.entries[:0]
}

// get returns the entry under key when it holds kind k.
func (b *Bundle) get(key string, k Kind) *entry {
	if e := b.lookup(key); e != nil && e.kind == k {
		return e
	}
	return nil
}

// PutString stores a string value.
func (b *Bundle) PutString(key, v string) { b.put(entry{key: key, kind: KindString, str: v}) }

// GetString returns the string under key, or def if absent or mistyped.
func (b *Bundle) GetString(key, def string) string {
	if e := b.get(key, KindString); e != nil {
		return e.str
	}
	return def
}

// PutInt stores an integer value.
func (b *Bundle) PutInt(key string, v int64) { b.put(entry{key: key, kind: KindInt, word: v}) }

// GetInt returns the integer under key, or def if absent or mistyped.
func (b *Bundle) GetInt(key string, def int64) int64 {
	if e := b.get(key, KindInt); e != nil {
		return e.word
	}
	return def
}

// PutFloat stores a float value.
func (b *Bundle) PutFloat(key string, v float64) {
	b.put(entry{key: key, kind: KindFloat, word: int64(math.Float64bits(v))})
}

// GetFloat returns the float under key, or def if absent or mistyped.
func (b *Bundle) GetFloat(key string, def float64) float64 {
	if e := b.get(key, KindFloat); e != nil {
		return e.float()
	}
	return def
}

// PutBool stores a boolean value.
func (b *Bundle) PutBool(key string, v bool) {
	var w int64
	if v {
		w = 1
	}
	b.put(entry{key: key, kind: KindBool, word: w})
}

// GetBool returns the boolean under key, or def if absent or mistyped.
func (b *Bundle) GetBool(key string, def bool) bool {
	if e := b.get(key, KindBool); e != nil {
		return e.boolean()
	}
	return def
}

// PutStringSlice stores a copy of a string slice.
func (b *Bundle) PutStringSlice(key string, v []string) {
	b.put(entry{key: key, kind: KindStringSlice, ref: append([]string{}, v...)})
}

// GetStringSlice returns a copy of the slice under key, or nil if absent.
func (b *Bundle) GetStringSlice(key string) []string {
	if e := b.get(key, KindStringSlice); e != nil {
		return append([]string{}, e.strs()...)
	}
	return nil
}

// PutIntSlice stores a copy of an int64 slice.
func (b *Bundle) PutIntSlice(key string, v []int64) {
	b.put(entry{key: key, kind: KindIntSlice, ref: append([]int64{}, v...)})
}

// GetIntSlice returns a copy of the slice under key, or nil if absent.
func (b *Bundle) GetIntSlice(key string) []int64 {
	if e := b.get(key, KindIntSlice); e != nil {
		return append([]int64{}, e.ints()...)
	}
	return nil
}

// PutBundle stores a nested bundle. The nested bundle is stored by
// reference, matching Android; callers that need isolation should store a
// Clone.
func (b *Bundle) PutBundle(key string, v *Bundle) { b.put(entry{key: key, kind: KindBundle, ref: v}) }

// GetBundle returns the nested bundle under key, or nil if absent.
func (b *Bundle) GetBundle(key string) *Bundle {
	if e := b.get(key, KindBundle); e != nil {
		return e.nested()
	}
	return nil
}

// deepCopy returns e with its slice or nested bundle copied.
func (e entry) deepCopy() entry {
	switch e.kind {
	case KindStringSlice:
		e.ref = append([]string{}, e.strs()...)
	case KindIntSlice:
		e.ref = append([]int64{}, e.ints()...)
	case KindBundle:
		e.ref = e.nested().Clone()
	}
	return e
}

// Clone returns a deep copy of the bundle; nested bundles and slices are
// copied recursively.
func (b *Bundle) Clone() *Bundle {
	out := &Bundle{entries: make([]entry, len(b.entries))}
	for i, e := range b.entries {
		out.entries[i] = e.deepCopy()
	}
	return out
}

// Merge copies every key of other into b, overwriting duplicates. Nested
// bundles are deep-copied.
func (b *Bundle) Merge(other *Bundle) {
	if other == nil {
		return
	}
	for _, e := range other.entries {
		b.put(e.deepCopy())
	}
}

// SizeBytes estimates the serialized footprint of the bundle, used by the
// memory model to charge the shadow-state snapshot.
func (b *Bundle) SizeBytes() int {
	const entryOverhead = 16
	total := 0
	for i := range b.entries {
		e := &b.entries[i]
		total += len(e.key) + entryOverhead
		switch e.kind {
		case KindString:
			total += len(e.str)
		case KindStringSlice:
			for _, s := range e.strs() {
				total += len(s) + 8
			}
		case KindIntSlice:
			total += 8 * len(e.ints())
		case KindBundle:
			total += e.nested().SizeBytes()
		default:
			total += 8
		}
	}
	return total
}

// Equal reports whether two bundles hold the same keys with the same kinds
// and values, recursively.
func (b *Bundle) Equal(other *Bundle) bool {
	if b == nil || other == nil {
		return b == other
	}
	if len(b.entries) != len(other.entries) {
		return false
	}
	for i := range b.entries {
		e, o := &b.entries[i], &other.entries[i]
		if e.key != o.key || e.kind != o.kind {
			return false
		}
		switch e.kind {
		case KindString:
			if e.str != o.str {
				return false
			}
		case KindInt, KindBool:
			if e.word != o.word {
				return false
			}
		case KindFloat:
			if e.float() != o.float() {
				return false
			}
		case KindStringSlice:
			if !slices.Equal(e.strs(), o.strs()) {
				return false
			}
		case KindIntSlice:
			if !slices.Equal(e.ints(), o.ints()) {
				return false
			}
		case KindBundle:
			if !e.nested().Equal(o.nested()) {
				return false
			}
		}
	}
	return true
}

// String renders the bundle deterministically for logs and golden tests.
func (b *Bundle) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i := range b.Len() {
		if i > 0 {
			sb.WriteString(", ")
		}
		e := &b.entries[i]
		switch e.kind {
		case KindString:
			fmt.Fprintf(&sb, "%s=%q", e.key, e.str)
		case KindInt:
			fmt.Fprintf(&sb, "%s=%d", e.key, e.word)
		case KindFloat:
			fmt.Fprintf(&sb, "%s=%g", e.key, e.float())
		case KindBool:
			fmt.Fprintf(&sb, "%s=%t", e.key, e.boolean())
		case KindStringSlice:
			fmt.Fprintf(&sb, "%s=%q", e.key, e.strs())
		case KindIntSlice:
			fmt.Fprintf(&sb, "%s=%v", e.key, e.ints())
		case KindBundle:
			fmt.Fprintf(&sb, "%s=%s", e.key, e.nested().String())
		}
	}
	sb.WriteByte('}')
	return sb.String()
}
