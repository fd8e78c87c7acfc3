package wire

import (
	"reflect"
	"testing"

	"tiledcfd/internal/stream"
)

// fillRecord sets every int64 field of the struct rec points to to
// next, next+1, ... and returns the value after the last.
func fillRecord(rec any, next int64) int64 {
	v := reflect.ValueOf(rec).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(next)
		next++
	}
	return next
}

// diffRecord reports each field of two records of one type that differs.
func diffRecord(t *testing.T, codec string, got, want any) {
	t.Helper()
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < w.NumField(); i++ {
		if g.Field(i).Int() != w.Field(i).Int() {
			t.Errorf("%s codec: %s.%s = %d, want %d", codec, w.Type().Name(), w.Type().Field(i).Name,
				g.Field(i).Int(), w.Field(i).Int())
		}
	}
}

// TestStatsCodecsCarryEveryRecordField: the stats and channel-stats
// result payloads round-trip every field of the accounting records they
// carry, each set to a distinct value, so a field added to a record and
// left out of the codec, or two fields swapped, fails here.
func TestStatsCodecsCarryEveryRecordField(t *testing.T) {
	var st stream.Stats
	next := fillRecord(&st.Counters, 1)
	fillRecord(&st.Gauges, next)
	r := &byteReader{p: appendStats(nil, st)}
	got := readStats(r)
	if r.err != nil || len(r.p) != 0 {
		t.Fatalf("stats: decode error %v, %d bytes left", r.err, len(r.p))
	}
	diffRecord(t, "stats", got.Counters, st.Counters)
	diffRecord(t, "stats", got.Gauges, st.Gauges)

	cs := stream.ChannelStats{ID: "ch"}
	fillRecord(&cs.ChannelCounters, 1)
	r = &byteReader{p: appendChannelStats(nil, cs)}
	gotCS := readChannelStats(r)
	if r.err != nil || len(r.p) != 0 {
		t.Fatalf("channel stats: decode error %v, %d bytes left", r.err, len(r.p))
	}
	diffRecord(t, "channel stats", gotCS.ChannelCounters, cs.ChannelCounters)
}
