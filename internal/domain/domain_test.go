package domain

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDayRoundTrip(t *testing.T) {
	cases := []string{"2000-01-01", "2019-05-07", "2021-05-21", "1999-12-31", "2024-02-29"}
	for _, s := range cases {
		d, err := ParseDay(s)
		if err != nil {
			t.Fatalf("ParseDay(%q): %v", s, err)
		}
		if got := d.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseDayRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "not-a-date", "2020-13-01", "01/02/2020"} {
		if _, err := ParseDay(s); err == nil {
			t.Errorf("ParseDay(%q): want error", s)
		}
	}
}

// FuzzParseDay checks every string ParseDay accepts: Day.String renders it
// back unchanged, and parsing that rendering gives the same Day.
func FuzzParseDay(f *testing.F) {
	for _, s := range []string{"2000-01-01", "2024-02-29", "2023-02-29", "1999-12-31", "0000-01-01", "9999-12-31", "2020-1-01", "20200101", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDay(s)
		if err != nil {
			return
		}
		if got := d.String(); got != s {
			t.Fatalf("ParseDay(%q) = %d renders as %q", s, int(d), got)
		}
		back, err := ParseDay(d.String())
		if err != nil || back != d {
			t.Fatalf("ParseDay(%q) = %d re-parses to %d (%v)", s, int(d), int(back), err)
		}
	})
}

func TestFromTimeTruncates(t *testing.T) {
	noon := time.Date(2020, 3, 4, 12, 30, 0, 0, time.UTC)
	midnight := time.Date(2020, 3, 4, 0, 0, 0, 0, time.UTC)
	if FromTime(noon) != FromTime(midnight) {
		t.Errorf("FromTime should truncate to date: %v vs %v", FromTime(noon), FromTime(midnight))
	}
}

func TestDayQuickRoundTrip(t *testing.T) {
	f := func(n int16) bool {
		d := Day(n)
		return FromTime(d.Time()) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mustDay parses a date or fails the test.
func mustDay(t *testing.T, s string) Day {
	t.Helper()
	d, err := ParseDay(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// paperAvail2 reconstructs avail ID 2 from the paper's Table 1, whose delay
// the paper computes as 405 = 745 - 340.
func paperAvail2(t *testing.T) *Avail {
	return &Avail{
		ID: 2, ShipID: 246, Status: StatusClosed,
		PlanStart: mustDay(t, "2019-05-07"),
		PlanEnd:   mustDay(t, "2020-04-11"),
		ActStart:  mustDay(t, "2019-05-07"),
		ActEnd:    mustDay(t, "2021-05-21"),
	}
}

func TestPaperTable1Delays(t *testing.T) {
	a2 := paperAvail2(t)
	if got := a2.PlannedDuration(); got != 340 {
		t.Errorf("avail 2 planned duration = %d, want 340", got)
	}
	act, err := a2.ActualDuration()
	if err != nil {
		t.Fatal(err)
	}
	if act != 745 {
		t.Errorf("avail 2 actual duration = %d, want 745", act)
	}
	d, err := a2.Delay()
	if err != nil {
		t.Fatal(err)
	}
	if d != 405 {
		t.Errorf("avail 2 delay = %d, want 405", d)
	}

	// Avail 5 from Table 1: started late but ended on the planned date;
	// delay is negative (-27) because delay ignores the late start.
	a5 := &Avail{
		ID: 5, ShipID: 1547, Status: StatusClosed,
		PlanStart: mustDay(t, "2020-01-31"),
		PlanEnd:   mustDay(t, "2020-08-19"),
		ActStart:  mustDay(t, "2020-02-27"),
		ActEnd:    mustDay(t, "2020-08-19"),
	}
	d5, err := a5.Delay()
	if err != nil {
		t.Fatal(err)
	}
	if d5 != -27 {
		t.Errorf("avail 5 delay = %d, want -27", d5)
	}

	// Avail 4 from Table 1: delay 39.
	a4 := &Avail{
		ID: 4, ShipID: 1565, Status: StatusClosed,
		PlanStart: mustDay(t, "2021-03-01"),
		PlanEnd:   mustDay(t, "2022-11-08"),
		ActStart:  mustDay(t, "2021-03-01"),
		ActEnd:    mustDay(t, "2022-12-17"),
	}
	if d4, _ := a4.Delay(); d4 != 39 {
		t.Errorf("avail 4 delay = %d, want 39", d4)
	}

	// Avail 3 finished exactly on plan: zero delay.
	a3 := &Avail{
		ID: 3, ShipID: 202, Status: StatusClosed,
		PlanStart: mustDay(t, "2018-07-18"),
		PlanEnd:   mustDay(t, "2019-06-11"),
		ActStart:  mustDay(t, "2018-07-18"),
		ActEnd:    mustDay(t, "2019-06-11"),
	}
	if d3, _ := a3.Delay(); d3 != 0 {
		t.Errorf("avail 3 delay = %d, want 0", d3)
	}
}

func TestOngoingAvailHasNoDelay(t *testing.T) {
	a := &Avail{ID: 1, Status: StatusOngoing,
		PlanStart: 0, PlanEnd: 100, ActStart: 0}
	if _, err := a.Delay(); err == nil {
		t.Error("Delay on ongoing avail: want error")
	}
	if _, err := a.ActualDuration(); err == nil {
		t.Error("ActualDuration on ongoing avail: want error")
	}
}

func TestLogicalTimePaperExample(t *testing.T) {
	// Paper §2: for avail 2, t = 2019-07-06 corresponds to t* = 18%
	// ((60 days elapsed)/340 ≈ 17.6%, which the paper rounds to 18%).
	a2 := paperAvail2(t)
	ts, err := a2.LogicalTime(mustDay(t, "2019-07-06"))
	if err != nil {
		t.Fatal(err)
	}
	if ts < 17.5 || ts > 18.0 {
		t.Errorf("logical time = %.2f, want ~17.6 (paper rounds to 18)", ts)
	}
}

func TestLogicalTimeBounds(t *testing.T) {
	a2 := paperAvail2(t)
	start, _ := a2.LogicalTime(a2.ActStart)
	if start != 0 {
		t.Errorf("t* at actual start = %f, want 0", start)
	}
	end, _ := a2.LogicalTime(a2.ActStart + Day(a2.PlannedDuration()))
	if end != 100 {
		t.Errorf("t* at planned-duration mark = %f, want 100", end)
	}
	past, _ := a2.LogicalTime(a2.ActEnd)
	if past <= 100 {
		t.Errorf("avail 2 ran past plan; t* at actual end = %f, want > 100", past)
	}
}

func TestLogicalTimeZeroPlanErrors(t *testing.T) {
	a := &Avail{ID: 9, PlanStart: 10, PlanEnd: 10}
	if _, err := a.LogicalTime(12); err == nil {
		t.Error("want error for zero planned duration")
	}
}

func TestPhysicalTimeInvertsLogicalTime(t *testing.T) {
	a2 := paperAvail2(t)
	f := func(pct uint8) bool {
		ts := float64(pct % 101)
		day := a2.PhysicalTime(ts)
		back, err := a2.LogicalTime(day)
		if err != nil {
			return false
		}
		// Rounding to integer days loses < 1 day = 100/340 % precision.
		return back <= ts+1e-9 && ts-back < 100.0/float64(a2.PlannedDuration())+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAvailValidate(t *testing.T) {
	bad := &Avail{ID: 1, PlanStart: 10, PlanEnd: 5}
	if err := bad.Validate(); err == nil {
		t.Error("want error for inverted plan window")
	}
	badAct := &Avail{ID: 2, PlanStart: 0, PlanEnd: 10, Status: StatusClosed, ActStart: 5, ActEnd: 1}
	if err := badAct.Validate(); err == nil {
		t.Error("want error for inverted actual window")
	}
	good := &Avail{ID: 3, PlanStart: 0, PlanEnd: 10, Status: StatusClosed, ActStart: 0, ActEnd: 12}
	if err := good.Validate(); err != nil {
		t.Errorf("valid avail rejected: %v", err)
	}
}

func TestRCCTypeStringAndParse(t *testing.T) {
	for _, tt := range []RCCType{Growth, NewWork, NewGrowth} {
		got, err := ParseRCCType(tt.String())
		if err != nil {
			t.Fatalf("ParseRCCType(%q): %v", tt.String(), err)
		}
		if got != tt {
			t.Errorf("round trip %v -> %v", tt, got)
		}
	}
	if _, err := ParseRCCType("X"); err == nil {
		t.Error("ParseRCCType(X): want error")
	}
}

func TestRCCStatusAt(t *testing.T) {
	r := &RCC{ID: 1, Created: 10, Settled: 20}
	cases := []struct {
		t       Day
		want    RCCStatus
		visible bool
	}{
		{5, 0, false},
		{9, 0, false},
		{10, Active, true},
		{15, Active, true},
		{19, Active, true},
		{20, SettledStatus, true},
		{100, SettledStatus, true},
	}
	for _, c := range cases {
		got, vis := r.StatusAt(c.t)
		if vis != c.visible || (vis && got != c.want) {
			t.Errorf("StatusAt(%d) = %v,%v, want %v,%v", c.t, got, vis, c.want, c.visible)
		}
	}
}

func TestRCCDurationAndValidate(t *testing.T) {
	r := &RCC{ID: 1, Created: mustDay(t, "2020-03-22"), Settled: mustDay(t, "2020-06-16"), Amount: 8000}
	if got := r.Duration(); got != 86 {
		t.Errorf("paper RCC 1G duration = %d days, want 86", got)
	}
	if err := r.Validate(); err != nil {
		t.Errorf("valid RCC rejected: %v", err)
	}
	bad := &RCC{ID: 2, Created: 10, Settled: 5}
	if err := bad.Validate(); err == nil {
		t.Error("want error for settled before created")
	}
	neg := &RCC{ID: 3, Created: 0, Settled: 1, Amount: -5}
	if err := neg.Validate(); err == nil {
		t.Error("want error for negative amount")
	}
}

// TestRCCValidateRejectsUnfoldable pins what Validate refuses beyond the
// date order: every record it accepts is one the Status Query structures
// can fold (type and SWLIN subsystem index their cells, amounts feed
// min/max), so one bad record cannot panic a sweep or poison a cell.
func TestRCCValidateRejectsUnfoldable(t *testing.T) {
	ok := RCC{ID: 1, Type: NewGrowth, SWLIN: 99_999_999, Created: 0, Settled: 1, Amount: 1}
	cases := []struct {
		name string
		edit func(*RCC)
		want bool // valid
	}{
		{"valid", func(*RCC) {}, true},
		{"zero SWLIN and amount", func(r *RCC) { r.SWLIN, r.Amount = 0, 0 }, true},
		{"type below G", func(r *RCC) { r.Type = -1 }, false},
		{"type past NG", func(r *RCC) { r.Type = NumRCCTypes }, false},
		{"type 7", func(r *RCC) { r.Type = 7 }, false},
		{"SWLIN past 8 digits", func(r *RCC) { r.SWLIN = 100_000_000 }, false},
		{"negative SWLIN", func(r *RCC) { r.SWLIN = -1 }, false},
		{"SWLIN with negative subsystem", func(r *RCC) { r.SWLIN = -10_000_000 }, false},
		{"NaN amount", func(r *RCC) { r.Amount = math.NaN() }, false},
		{"+Inf amount", func(r *RCC) { r.Amount = math.Inf(1) }, false},
		{"-Inf amount", func(r *RCC) { r.Amount = math.Inf(-1) }, false},
	}
	for _, c := range cases {
		r := ok
		c.edit(&r)
		if err := r.Validate(); (err == nil) != c.want {
			t.Errorf("%s: Validate() = %v, want valid=%v", c.name, err, c.want)
		}
	}
}

func TestStatusStrings(t *testing.T) {
	if StatusOngoing.String() != "ongoing" || StatusClosed.String() != "closed" {
		t.Error("AvailStatus strings wrong")
	}
	if Active.String() != "ACTIVE" || SettledStatus.String() != "SETTLED" || Created.String() != "CREATED" {
		t.Error("RCCStatus strings wrong")
	}
}
