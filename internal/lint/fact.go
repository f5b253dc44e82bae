package lint

import (
	"go/types"
	"reflect"
)

// A Fact is a per-object datum one analyzer computes while analyzing the
// package that declares the object, and later consumes when analyzing the
// packages that use it. Facts are how the determinism-zone analyzers see
// across package boundaries: "this function reaches time.Now", "this type
// marshals a map", "this helper hands out an unseeded RNG".
//
// Fact types must be pointers to structs.
type Fact interface {
	// AFact marks the type as a fact. It is never called.
	AFact()
}

// factID keys one fact slot: each analyzer may attach at most one fact of
// each concrete type to an object.
type factID struct {
	analyzer string
	typ      reflect.Type
}

// A factStore holds the facts of one RunAnalyzers session. A single store
// spans every package of the run: packages share object identity through
// the loader, so a fact exported while analyzing a dependency is found by
// object when its importers are analyzed.
type factStore struct {
	objs map[types.Object]map[factID]Fact
}

func newFactStore() *factStore {
	return &factStore{objs: make(map[types.Object]map[factID]Fact)}
}

func (s *factStore) export(analyzer string, obj types.Object, f Fact) {
	if obj == nil || f == nil {
		return
	}
	id := factID{analyzer: analyzer, typ: reflect.TypeOf(f)}
	m := s.objs[obj]
	if m == nil {
		m = make(map[factID]Fact)
		s.objs[obj] = m
	}
	m[id] = f
}

// imported copies the stored fact for (analyzer, obj, type of dst) into dst,
// reporting whether one was found. dst must be a pointer to a fact struct.
func (s *factStore) imported(analyzer string, obj types.Object, dst Fact) bool {
	if obj == nil || dst == nil {
		return false
	}
	id := factID{analyzer: analyzer, typ: reflect.TypeOf(dst)}
	f, ok := s.objs[obj][id]
	if !ok {
		return false
	}
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}
