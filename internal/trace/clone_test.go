package trace

import (
	"reflect"
	"testing"
)

func recorded(slots ...uint64) *Recorder {
	r := NewRecorder(0)
	for _, s := range slots {
		r.Record(s)
	}
	return r
}

// TestRecorderCloneIndependent: recording into a clone or its source
// leaves the other's stream and counts exactly as if recorded alone.
func TestRecorderCloneIndependent(t *testing.T) {
	r := recorded(1, 2, 1, 3)
	c := r.Clone()
	c.Record(9)
	r.Record(2)
	for _, tc := range []struct {
		got, want *Recorder
	}{{r, recorded(1, 2, 1, 3, 2)}, {c, recorded(1, 2, 1, 3, 9)}} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("recorder = %+v, want %+v", tc.got, tc.want)
		}
	}
}
