package bgp

import (
	"reflect"
	"testing"
)

// TestLocEntryPointerFree walks the stored RIB entry types and fails on any
// field the collector would have to follow. What a failure costs: a
// []locEntry or a slot table with a pointer in it goes back on the
// collector's scan list — at 10k ASes that is tens of millions of words
// re-marked every cycle (DESIGN.md §4). A slot is stored once per (prefix,
// session), so its size is bounded too: the table is the engine's largest.
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
	walk("slot", reflect.TypeOf(slot{}))
	if size := reflect.TypeOf(locEntry{}).Size(); size > 32 {
		t.Errorf("locEntry is %d bytes, want at most 32", size)
	}
	if size := reflect.TypeOf(slot{}).Size(); size > 12 {
		t.Errorf("slot is %d bytes, want at most 12", size)
	}
}
