package bgp

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"lifeguard/internal/topo"
)

// TestLocEntryPointerFree walks the two stored RIB entry types and fails on
// any field the collector would have to follow. What a failure costs: a
// []locEntry or an adjSlab chunk with a pointer in it goes back on the
// collector's scan list — at 10k ASes that is tens of millions of words
// re-marked every cycle, the cost PR 23 took out (DESIGN.md §4).
func TestLocEntryPointerFree(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s: the collector would scan every RIB entry for it", path, ty.Kind())
		case reflect.Struct:
			for i := range ty.NumField() {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		}
	}
	walk("locEntry", reflect.TypeOf(locEntry{}))
	walk("adjEntry", reflect.TypeOf(adjEntry{}))
	if size := reflect.TypeOf(locEntry{}).Size(); size > 32 {
		t.Errorf("locEntry is %d bytes, want at most 32", size)
	}
}

// TestSearchNbrMatchesSortSearch holds the scan-or-bisect search to the
// sort.Search it replaced, on random sorted arrays on both sides of
// scanBelow, probing every stored neighbor, every gap and both ends.
func TestSearchNbrMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 2000; trial++ {
		entries := make([]adjEntry, rng.Intn(3*scanBelow))
		nbr := topo.ASN(rng.Intn(3))
		for i := range entries {
			nbr += topo.ASN(1 + rng.Intn(3))
			entries[i].nbr = nbr
		}
		for probe := topo.ASN(0); probe <= nbr+2; probe++ {
			want := sort.Search(len(entries), func(i int) bool { return entries[i].nbr >= probe })
			if got := searchNbr(entries, probe); got != want {
				t.Fatalf("searchNbr(%d entries, %d) = %d, sort.Search says %d", len(entries), probe, got, want)
			}
		}
	}
}

// TestPrefixRIBArraysDoNotShare fills many prefixRIBs from one slab in
// interleaved order — each growing 0 → 1 → 2 → 4 → … in the middle of a
// chunk its neighbours also live in — with removals between, and checks
// each still holds exactly the neighbors it was given, in order.
func TestPrefixRIBArraysDoNotShare(t *testing.T) {
	const ribs, most = 40, 40
	rng := rand.New(rand.NewSource(7))
	slab := adjSlab{first: 2, most: most}
	got := make([]prefixRIB, ribs)
	want := make([]map[topo.ASN]adjEntry, ribs)
	for i := range want {
		want[i] = make(map[topo.ASN]adjEntry)
	}
	for step := 0; step < 20000; step++ {
		i, nbr := rng.Intn(ribs), topo.ASN(1+rng.Intn(most))
		rb := &got[i]
		if idx := rb.find(nbr); idx >= 0 {
			rb.remove(idx)
			delete(want[i], nbr)
		} else {
			ent := adjEntry{nbr: nbr, path: pathID(step + 1), lpref: int32(i)}
			rb.insert(ent, &slab)
			want[i][nbr] = ent
		}
	}
	for i := range got {
		if len(got[i].entries) != len(want[i]) {
			t.Fatalf("rib %d holds %d entries, want %d", i, len(got[i].entries), len(want[i]))
		}
		for j, ent := range got[i].entries {
			if ent != want[i][ent.nbr] {
				t.Fatalf("rib %d entry %d is %+v, want %+v", i, j, ent, want[i][ent.nbr])
			}
			if j > 0 && got[i].entries[j-1].nbr >= ent.nbr {
				t.Fatalf("rib %d out of neighbor order at %d", i, j)
			}
		}
	}
}
