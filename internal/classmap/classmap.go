// Package classmap is the bookkeeping under the per-node maps whose values
// come from a default, a named class, or a per-node override — eventsim's
// RateMap (activation rates) and core's PopulationOn (role processes) — plus
// the tokenizer of the textual specs both are parsed from.
package classmap

import (
	"fmt"
	"iter"
	"strconv"
	"strings"
)

// A Table holds one value per node: the default, its class's value, or a
// per-node override. Every panic reads "<pkg>: <Type>: <op> …", naming the
// owning type and the exported operation the caller invoked.
type Table[T any] struct {
	owner    string // "<pkg>: <Type>", the panic prefix
	def      T
	values   []T
	slot     []int32 // node -> class index, or atDefault, or overridden
	names    []string
	class    []T
	byName   map[string]int
	assigned int // nodes not at the default
}

const atDefault, overridden = -1, -2

// New returns the table giving each of n nodes the default def. It panics,
// as New<kind>, on a negative n.
func New[T any](pkg, kind string, n int, def T) Table[T] {
	if n < 0 {
		panic(fmt.Sprintf("%s: %s: New%s with negative n %d", pkg, kind, kind, n))
	}
	t := Table[T]{
		owner:  pkg + ": " + kind,
		def:    def,
		values: make([]T, n),
		slot:   make([]int32, n),
		byName: make(map[string]int),
	}
	for u := range t.values {
		t.values[u] = def
		t.slot[u] = atDefault
	}
	return t
}

// Panicf panics with "<pkg>: <Type>: <op> " and the formatted message.
func (t *Table[T]) Panicf(op, format string, args ...any) {
	panic(t.owner + ": " + op + " " + fmt.Sprintf(format, args...))
}

// Values returns the per-node values, indexed by node. Read only.
func (t *Table[T]) Values() []T { return t.values }

// Default returns the default value.
func (t *Table[T]) Default() T { return t.def }

// Uniform reports whether every node holds the default.
func (t *Table[T]) Uniform() bool { return t.assigned == 0 }

// Define registers a named class holding v. It panics on an empty or
// duplicate name.
func (t *Table[T]) Define(op, name string, v T) {
	if name == "" {
		t.Panicf(op, "with empty name")
	}
	if _, dup := t.byName[name]; dup {
		t.Panicf(op, "of class %q: already defined", name)
	}
	t.byName[name] = len(t.names)
	t.names = append(t.names, name)
	t.class = append(t.class, v)
}

func (t *Table[T]) index(op, name string) int {
	c, ok := t.byName[name]
	if !ok {
		t.Panicf(op, "of unknown class %q", name)
	}
	return c
}

func (t *Table[T]) node(op string, u int) {
	if uint(u) >= uint(len(t.values)) {
		t.Panicf(op, "node %d outside [0, %d)", u, len(t.values))
	}
}

// set moves node u to slot s holding v, keeping the assigned count exact.
func (t *Table[T]) set(u int, s int32, v T) {
	if was, is := t.slot[u] == atDefault, s == atDefault; was && !is {
		t.assigned++
	} else if !was && is {
		t.assigned--
	}
	t.slot[u] = s
	t.values[u] = v
}

// Assign puts nodes [lo, hi) into the named class, clearing their
// overrides. It panics on an unknown class or an out-of-range interval.
func (t *Table[T]) Assign(op, name string, lo, hi int) {
	c := t.index(op, name)
	if lo < 0 || hi > len(t.values) || lo > hi {
		t.Panicf(op, "range [%d, %d) outside [0, %d)", lo, hi, len(t.values))
	}
	for u := lo; u < hi; u++ {
		t.set(u, int32(c), t.class[c])
	}
}

// AssignNodes puts the listed nodes into the named class.
func (t *Table[T]) AssignNodes(op, name string, nodes ...int) {
	c := t.index(op, name)
	for _, u := range nodes {
		t.node(op, u)
		t.set(u, int32(c), t.class[c])
	}
}

// Override gives node u a value of its own, detaching it from its class,
// and returns the value it held.
func (t *Table[T]) Override(op string, u int, v T) (old T) {
	t.node(op, u)
	old = t.values[u]
	t.set(u, overridden, v)
	return old
}

// Reset returns node u to the default.
func (t *Table[T]) Reset(op string, u int) {
	t.node(op, u)
	t.set(u, atDefault, t.def)
}

// ClassValue returns the named class's value.
func (t *Table[T]) ClassValue(op, name string) T { return t.class[t.index(op, name)] }

// SetClass retunes the named class to v and returns its members. O(n).
func (t *Table[T]) SetClass(op, name string, v T) []int {
	members := t.Members(op, name)
	t.class[t.byName[name]] = v
	for _, u := range members {
		t.values[u] = v
	}
	return members
}

// ClassOf returns node u's class name, or "" for a node at the default, an
// overridden node, or one beyond the table.
func (t *Table[T]) ClassOf(u int) string {
	if uint(u) < uint(len(t.slot)) && t.slot[u] >= 0 {
		return t.names[t.slot[u]]
	}
	return ""
}

// Members returns the named class's current members, ascending. O(n).
func (t *Table[T]) Members(op, name string) []int {
	c := int32(t.index(op, name))
	var members []int
	for u, s := range t.slot {
		if s == c {
			members = append(members, u)
		}
	}
	return members
}

// Names returns the class names in definition order.
func (t *Table[T]) Names() []string { return append([]string(nil), t.names...) }

// Census returns each class's member count, in definition order, and the
// number of overridden nodes. O(n).
func (t *Table[T]) Census() (counts []int, overrides int) {
	counts = make([]int, len(t.names))
	for _, s := range t.slot {
		if s == overridden {
			overrides++
		} else if s >= 0 {
			counts[s]++
		}
	}
	return counts, overrides
}

// A Segment is one comma-separated piece of a spec, head[=value[:nodes]],
// where nodes is an inclusive id range "lo-hi" or a single id "u".
type Segment struct {
	Text     string // the whole segment, trimmed
	Head     string // the text before '=', trimmed
	HasValue bool   // the segment has '='
	Value    string // the text between '=' and the first ':', untrimmed
	HasNodes bool   // the value is followed by ':'
	Nodes    string // the text after that ':', untrimmed
	prefix   string // the spec's name ("rates", "roles"), its errors' prefix
}

// Segments yields the trimmed segments of spec in order. A segment empty
// after trimming yields an error and ends the sequence.
func Segments(prefix, spec string) iter.Seq2[Segment, error] {
	return func(yield func(Segment, error) bool) {
		for _, text := range strings.Split(spec, ",") {
			text = strings.TrimSpace(text)
			if text == "" {
				yield(Segment{}, fmt.Errorf("%s: empty segment in %q", prefix, spec))
				return
			}
			head, rest, hasValue := strings.Cut(text, "=")
			s := Segment{Text: text, Head: strings.TrimSpace(head), HasValue: hasValue, prefix: prefix}
			s.Value, s.Nodes, s.HasNodes = strings.Cut(rest, ":")
			if !yield(s, nil) {
				return
			}
		}
	}
}

// Range parses the segment's node range: lo, hi inclusive, or -1, -1 for a
// segment without one.
func (s Segment) Range() (lo, hi int, err error) {
	if !s.HasNodes {
		return -1, -1, nil
	}
	loStr, hiStr, isRange := strings.Cut(strings.TrimSpace(s.Nodes), "-")
	if !isRange {
		hiStr = loStr
	}
	lo, loErr := strconv.Atoi(strings.TrimSpace(loStr))
	hi, hiErr := strconv.Atoi(strings.TrimSpace(hiStr))
	if loErr != nil || hiErr != nil {
		return 0, 0, fmt.Errorf("%s: segment %q has a malformed node range %q", s.prefix, s.Text, s.Nodes)
	}
	if lo < 0 || hi < lo {
		return 0, 0, fmt.Errorf("%s: segment %q has an invalid node range %d-%d", s.prefix, s.Text, lo, hi)
	}
	return lo, hi, nil
}
