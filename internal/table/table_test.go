package table

import (
	"bytes"
	"strings"
	"testing"

	"domd/internal/domain"
	"domd/internal/navsim"
)

func TestAvailRoundTrip(t *testing.T) {
	ds, err := navsim.Generate(navsim.Config{NumClosed: 25, NumOngoing: 3, MeanRCCsPerAvail: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteAvails(&buf, ds.Avails); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAvails(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ds.Avails) {
		t.Fatalf("%d avails back, want %d", len(back), len(ds.Avails))
	}
	for i := range back {
		if back[i] != ds.Avails[i] {
			t.Fatalf("avail %d mismatch:\n got %+v\nwant %+v", i, back[i], ds.Avails[i])
		}
	}
}

func TestRCCRoundTrip(t *testing.T) {
	ds, err := navsim.Generate(navsim.Config{NumClosed: 10, NumOngoing: 0, MeanRCCsPerAvail: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRCCs(&buf, ds.RCCs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRCCs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ds.RCCs) {
		t.Fatalf("%d rccs back, want %d", len(back), len(ds.RCCs))
	}
	for i := range back {
		if back[i] != ds.RCCs[i] {
			t.Fatalf("rcc %d mismatch:\n got %+v\nwant %+v", i, back[i], ds.RCCs[i])
		}
	}
}

func TestOngoingAvailHasEmptyEnd(t *testing.T) {
	a := domain.Avail{ID: 1, ShipID: 2, Status: domain.StatusOngoing,
		PlanStart: 100, PlanEnd: 200, ActStart: 100}
	var buf bytes.Buffer
	if err := WriteAvails(&buf, []domain.Avail{a}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines", len(lines))
	}
	if !strings.Contains(lines[1], "ongoing") {
		t.Errorf("row missing status: %q", lines[1])
	}
	back, err := ReadAvails(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back[0].Status != domain.StatusOngoing || back[0].ActEnd != 0 {
		t.Errorf("ongoing round trip wrong: %+v", back[0])
	}
}

func TestReadRejectsBadData(t *testing.T) {
	cases := []struct {
		name string
		csv  string
	}{
		{"empty", ""},
		{"bad header", "x,y\n1,2\n"},
		{"bad status", strings.Join(availHeader, ",") + "\n1,2,unknown,2020-01-01,2020-02-01,2020-01-01,,0,1,5,100,50,0,0,10\n"},
		{"bad date", strings.Join(availHeader, ",") + "\n1,2,closed,NOTADATE,2020-02-01,2020-01-01,2020-02-01,0,1,5,100,50,0,0,10\n"},
		{"inverted plan", strings.Join(availHeader, ",") + "\n1,2,closed,2020-03-01,2020-02-01,2020-01-01,2020-02-05,0,1,5,100,50,0,0,10\n"},
		{"ongoing with end", strings.Join(availHeader, ",") + "\n1,2,ongoing,2020-01-01,2020-02-01,2020-01-01,2020-02-05,0,1,5,100,50,0,0,10\n"},
	}
	for _, c := range cases {
		if _, err := ReadAvails(strings.NewReader(c.csv)); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

func TestReadRCCRejectsBadData(t *testing.T) {
	head := strings.Join(rccHeader, ",") + "\n"
	cases := []struct {
		name string
		csv  string
	}{
		{"empty", ""},
		{"bad type", head + "1,1,XX,434-11-001,2020-01-01,2020-02-01,100\n"},
		{"bad swlin", head + "1,1,G,44-11-001,2020-01-01,2020-02-01,100\n"},
		{"settled before created", head + "1,1,G,434-11-001,2020-03-01,2020-02-01,100\n"},
		{"negative amount", head + "1,1,G,434-11-001,2020-01-01,2020-02-01,-5\n"},
		{"NaN amount", head + "1,1,G,434-11-001,2020-01-01,2020-02-01,NaN\n"},
		{"Inf amount", head + "1,1,G,434-11-001,2020-01-01,2020-02-01,Inf\n"},
		{"-Inf amount", head + "1,1,G,434-11-001,2020-01-01,2020-02-01,-Inf\n"},
	}
	for _, c := range cases {
		if _, err := ReadRCCs(strings.NewReader(c.csv)); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

func TestRCCWorkspecFormatted(t *testing.T) {
	r := domain.RCC{ID: 1, AvailID: 5, Type: domain.Growth,
		SWLIN: 43411001, Created: 100, Settled: 150, Amount: 8000}
	var buf bytes.Buffer
	if err := WriteRCCs(&buf, []domain.RCC{r}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "434-11-001") {
		t.Errorf("workspec not in paper format: %s", buf.String())
	}
}

func TestReadAvailsFieldErrors(t *testing.T) {
	head := strings.Join(availHeader, ",") + "\n"
	base := []string{"1", "2", "closed", "2020-01-01", "2020-06-01", "2020-01-01", "2020-06-10",
		"0", "1", "5.5", "100000", "50", "2", "1", "10.5"}
	broken := map[string]int{
		"avail_id":      0,
		"ship_id":       1,
		"plan_end":      4,
		"actual_start":  5,
		"actual_end":    6,
		"ship_class":    7,
		"rmc":           8,
		"ship_age":      9,
		"planned_cost":  10,
		"crew_size":     11,
		"prior_avails":  12,
		"dock_type":     13,
		"homeport_dist": 14,
	}
	for field, idx := range broken {
		rec := append([]string(nil), base...)
		rec[idx] = "xx"
		csv := head + strings.Join(rec, ",") + "\n"
		if _, err := ReadAvails(strings.NewReader(csv)); err == nil {
			t.Errorf("corrupt %s accepted", field)
		}
	}
	// Wrong field count.
	short := head + strings.Join(base[:10], ",") + "\n"
	if _, err := ReadAvails(strings.NewReader(short)); err == nil {
		t.Error("short row accepted")
	}
}

func TestReadRCCFieldErrors(t *testing.T) {
	head := strings.Join(rccHeader, ",") + "\n"
	base := []string{"1", "1", "G", "434-11-001", "2020-01-01", "2020-02-01", "100"}
	for idx, field := range []string{"rcc_id", "avail_id", "type", "workspec", "creation_date", "settled_date", "amount"} {
		rec := append([]string(nil), base...)
		rec[idx] = "zz"
		csv := head + strings.Join(rec, ",") + "\n"
		if _, err := ReadRCCs(strings.NewReader(csv)); err == nil {
			t.Errorf("corrupt %s accepted", field)
		}
	}
	if _, err := ReadRCCs(strings.NewReader(head + "1,2,G\n")); err == nil {
		t.Error("short rcc row accepted")
	}
	// Header with wrong column name.
	badHead := strings.Replace(head, "workspec", "swlin", 1)
	if _, err := ReadRCCs(strings.NewReader(badHead + strings.Join(base, ",") + "\n")); err == nil {
		t.Error("wrong header accepted")
	}
}
