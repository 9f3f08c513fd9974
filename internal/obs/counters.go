package obs

import (
	"fmt"
	"reflect"
	"sync/atomic"
)

// LoadCounters returns a copy of *src read field by field with atomic
// loads. src is a counter block: a struct whose fields are all uint64
// or int64, which hot paths bump with atomic.AddUint64/AddInt64 and
// nothing else writes. Declaring a counter is then one JSON-tagged
// field; the snapshot that embeds the copy serves it on /v1/metrics and,
// through WriteProm, on /metrics.
//
// On 32-bit platforms the 64-bit atomics need 8-byte alignment, so a
// live block must start its owner struct (or be allocated on its own).
//
// Export path: reflection is fine here; the bump sites stay a single
// atomic add.
func LoadCounters[T any](src *T) T {
	var dst T
	sv, dv := reflect.ValueOf(src).Elem(), reflect.ValueOf(&dst).Elem()
	for i := 0; i < sv.NumField(); i++ {
		switch p := sv.Field(i).Addr().Interface().(type) {
		case *uint64:
			dv.Field(i).SetUint(atomic.LoadUint64(p))
		case *int64:
			dv.Field(i).SetInt(atomic.LoadInt64(p))
		default:
			panic(fmt.Sprintf("obs.LoadCounters: %s.%s is %T, want *uint64 or *int64",
				sv.Type(), sv.Type().Field(i).Name, p))
		}
	}
	return dst
}
