package stats

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestMsgTypeNames(t *testing.T) {
	for typ, want := range map[MsgType]string{
		GetS: "GetS", GetM: "GetM", FwdGetS: "Fwd-GetS", Inv: "Inv",
		Data: "Data", RegionAdd: "Region-Add", ReconcileFlush: "Reconcile-Flush",
	} {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
	if MsgType(99).String() == "" {
		t.Fatal("out-of-range type must still format")
	}
}

func TestCarries(t *testing.T) {
	for typ, want := range map[MsgType]bool{
		Data: true, DataDir: true, ReconcileFlush: true,
		GetS: false, Inv: false, PutM: false,
	} {
		if typ.Carries() != want {
			t.Errorf("%v.Carries() = %v, want %v", typ, typ.Carries(), want)
		}
	}
}

func TestMessageAccounting(t *testing.T) {
	var c Counters
	c.Message(GetS, 3, false, 1)
	c.Message(Data, 3, true, 5)
	if c.Msgs[GetS] != 1 || c.Msgs[Data] != 1 {
		t.Fatal("message counts wrong")
	}
	if c.NoCFlitHops != 3+15 {
		t.Fatalf("flit-hops = %d, want 18", c.NoCFlitHops)
	}
	if c.IntersocketFlits != 5 || c.IntersocketMsgs[Data] != 1 || c.IntersocketMsgs[GetS] != 0 {
		t.Fatal("intersocket accounting wrong")
	}
	if c.TotalMsgs() != 2 {
		t.Fatalf("TotalMsgs = %d", c.TotalMsgs())
	}
}

func TestDerivedMetrics(t *testing.T) {
	c := Counters{Instructions: 2000, Invalidations: 30, Downgrades: 10}
	if got := c.InvDowngradesPerKiloInstr(); got != 20 {
		t.Fatalf("per-kilo = %v, want 20", got)
	}
	if got := c.IPC(1000); got != 2 {
		t.Fatalf("IPC = %v, want 2", got)
	}
	var zero Counters
	if zero.InvDowngradesPerKiloInstr() != 0 || zero.IPC(0) != 0 {
		t.Fatal("zero-division guards missing")
	}
}

func TestAddAccumulatesEverything(t *testing.T) {
	f := func(a, b uint16) bool {
		x := Counters{Instructions: uint64(a), Loads: uint64(a), Invalidations: uint64(a), NoCFlitHops: uint64(a), WardAccesses: uint64(a), LoadCycles: uint64(a)}
		x.Msgs[GetM] = uint64(a)
		y := Counters{Instructions: uint64(b), Loads: uint64(b), Invalidations: uint64(b), NoCFlitHops: uint64(b), WardAccesses: uint64(b), LoadCycles: uint64(b)}
		y.Msgs[GetM] = uint64(b)
		x.Add(&y)
		sum := uint64(a) + uint64(b)
		return x.Instructions == sum && x.Loads == sum && x.Invalidations == sum &&
			x.NoCFlitHops == sum && x.WardAccesses == sum && x.Msgs[GetM] == sum &&
			x.LoadCycles == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSnapIntoAndDeltaInto: SnapInto copies every Snapshot field from the
// Counters field of the same name, and DeltaInto writes the growth since
// such a snapshot, also when the delta overwrites the snapshot in place.
func TestSnapIntoAndDeltaInto(t *testing.T) {
	var c Counters
	cv := reflect.ValueOf(&c).Elem()
	set := func(base uint64) {
		for i := 0; i < cv.NumField(); i++ {
			f := cv.Field(i)
			if f.Kind() == reflect.Array {
				for j := 0; j < f.Len(); j++ {
					f.Index(j).SetUint(base + uint64(100*i+j))
				}
				continue
			}
			f.SetUint(base + uint64(100*i))
		}
	}
	set(1000)
	var before Snapshot
	c.SnapInto(&before)
	bv := reflect.ValueOf(before)
	for i := 0; i < bv.NumField(); i++ {
		name := bv.Type().Field(i).Name
		if got, want := bv.Field(i).Interface(), cv.FieldByName(name).Interface(); !reflect.DeepEqual(got, want) {
			t.Fatalf("SnapInto: %s = %v, want %v", name, got, want)
		}
	}
	set(5000)
	var d Snapshot
	c.DeltaInto(&d, &before)
	dv := reflect.ValueOf(d)
	for i := 0; i < dv.NumField(); i++ {
		f := dv.Field(i)
		if f.Kind() == reflect.Array {
			for j := 0; j < f.Len(); j++ {
				if f.Index(j).Uint() != 4000 {
					t.Fatalf("DeltaInto: %s[%d] = %d, want 4000", dv.Type().Field(i).Name, j, f.Index(j).Uint())
				}
			}
			continue
		}
		if f.Uint() != 4000 {
			t.Fatalf("DeltaInto: %s = %d, want 4000", dv.Type().Field(i).Name, f.Uint())
		}
	}
	c.DeltaInto(&before, &before)
	if before != d {
		t.Fatalf("in-place DeltaInto = %+v, want %+v", before, d)
	}
}
