package stream

import (
	"reflect"
	"testing"
)

// fillDistinct sets every field of the struct rec points to, each an
// int64, to next, next+1, ... so that no two fields hold the same value.
func fillDistinct(t *testing.T, rec any, next int64) {
	t.Helper()
	v := reflect.ValueOf(rec).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("%s.%s is %s: the accounting records hold int64 counts only",
				v.Type().Name(), v.Type().Field(i).Name, v.Field(i).Kind())
		}
		v.Field(i).SetInt(next)
		next++
	}
}

// checkAddSumsEveryField fails for each field of T that add leaves out
// of the sum.
func checkAddSumsEveryField[T any](t *testing.T, add func(*T, T)) {
	t.Helper()
	var a, b T
	fillDistinct(t, &a, 1)
	fillDistinct(t, &b, 100)
	sum := a
	add(&sum, b)
	va, vb, vs := reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(sum)
	for i := 0; i < vs.NumField(); i++ {
		if got, want := vs.Field(i).Int(), va.Field(i).Int()+vb.Field(i).Int(); got != want {
			t.Errorf("%s.Add: %s = %d, want %d", vs.Type().Name(), vs.Type().Field(i).Name, got, want)
		}
	}
}

// TestRecordsAddEveryField: each accounting record's Add sums every one
// of its fields, so a field added later and left out of Add fails here.
func TestRecordsAddEveryField(t *testing.T) {
	checkAddSumsEveryField(t, (*Counters).Add)
	checkAddSumsEveryField(t, (*Gauges).Add)
	checkAddSumsEveryField(t, (*ChannelCounters).Add)
}

// TestStatsRecordsShareNoFieldName: Stats embeds Counters and Gauges at
// one depth, and so do the types that embed both. A name in both would
// make the promoted field ambiguous, and encoding/json would silently
// drop it from /stats.
func TestStatsRecordsShareNoFieldName(t *testing.T) {
	seen := map[string]bool{}
	for _, rec := range []reflect.Type{reflect.TypeOf(Counters{}), reflect.TypeOf(Gauges{})} {
		for i := 0; i < rec.NumField(); i++ {
			name := rec.Field(i).Name
			if seen[name] {
				t.Errorf("%s.%s is declared in two records Stats embeds", rec.Name(), name)
			}
			seen[name] = true
		}
	}
}
