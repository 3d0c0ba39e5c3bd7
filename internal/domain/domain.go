// Package domain defines the core data model of the DoMD framework: ship
// maintenance availabilities ("avails"), Requests for Contract Change (RCCs),
// and the logical-time arithmetic that relates physical timestamps to the
// fraction of planned maintenance duration elapsed (paper §2, Eq. 1).
//
// All dates are represented as integer day numbers (days since an arbitrary
// epoch). Delay is expressed in days, logical time in percent of planned
// duration.
package domain

import (
	"errors"
	"fmt"
	"time"
)

// Day is a calendar date expressed as a day number since the epoch
// (2000-01-01). Integer day arithmetic keeps delay computation exact and
// avoids timezone pitfalls; the raw Navy tables only carry date resolution.
type Day int

// Epoch is the calendar date corresponding to Day(0).
var Epoch = time.Date(2000, time.January, 1, 0, 0, 0, 0, time.UTC)

// FromTime converts a wall-clock time to a Day, truncating to UTC midnight.
// It counts whole seconds, not a time.Duration, which saturates about 292
// years from the epoch.
func FromTime(t time.Time) Day {
	const secsPerDay = 24 * 60 * 60
	secs := t.Unix() - Epoch.Unix()
	days := secs / secsPerDay
	if secs%secsPerDay < 0 {
		days-- // floor: a time before the epoch belongs to the earlier day
	}
	return Day(days)
}

// Time converts a Day back to a UTC midnight time.Time.
func (d Day) Time() time.Time { return Epoch.AddDate(0, 0, int(d)) }

// String renders the day as an ISO date.
func (d Day) String() string { return d.Time().Format("2006-01-02") }

// ParseDay parses an ISO "2006-01-02" date into a Day.
func ParseDay(s string) (Day, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("domain: parse day %q: %w", s, err)
	}
	return FromTime(t), nil
}

// AvailStatus describes whether a maintenance period has concluded.
type AvailStatus int

const (
	// StatusOngoing marks an avail whose actual end date is not yet known.
	StatusOngoing AvailStatus = iota
	// StatusClosed marks a completed avail with a measurable delay.
	StatusClosed
)

// String implements fmt.Stringer.
func (s AvailStatus) String() string {
	switch s {
	case StatusOngoing:
		return "ongoing"
	case StatusClosed:
		return "closed"
	default:
		return fmt.Sprintf("AvailStatus(%d)", int(s))
	}
}

// Avail is one ship maintenance period
// a_i = <i, t_planS, t_planE, t_actS, t_actE> (paper §2, Table 1), plus the
// static ship attributes used by the static model.
type Avail struct {
	ID     int
	ShipID int
	Status AvailStatus

	PlanStart Day
	PlanEnd   Day
	ActStart  Day
	// ActEnd is only meaningful when Status == StatusClosed.
	ActEnd Day

	// Static attributes F^S (paper §2): time-invariant features known
	// before execution begins. The paper cites ship class, maintenance
	// center (RMC), ship age and planning features among its 8 statics.
	ShipClass    int     // hull class code
	RMC          int     // Regional Maintenance Center id
	ShipAge      float64 // years since commissioning at planned start
	PlannedCost  float64 // contract planning dollars
	CrewSize     int     // assigned maintenance crew size
	PriorAvails  int     // number of prior availabilities for this hull
	DockType     int     // 0 pier-side, 1 dry dock
	HomeportDist float64 // distance from homeport to RMC (nmi)
}

// PlannedDuration returns s^plan = planE - planS in days.
func (a *Avail) PlannedDuration() int { return int(a.PlanEnd - a.PlanStart) }

// ActualDuration returns s^act = actE - actS in days. It returns an error for
// ongoing avails, whose actual end is undefined.
func (a *Avail) ActualDuration() (int, error) {
	if a.Status != StatusClosed {
		return 0, fmt.Errorf("domain: avail %d: %w", a.ID, ErrOngoing)
	}
	return int(a.ActEnd - a.ActStart), nil
}

// Delay returns d = s^act - s^plan in days (paper §2). Positive means tardy,
// zero on time, negative early. Ongoing avails have no delay yet.
func (a *Avail) Delay() (int, error) {
	act, err := a.ActualDuration()
	if err != nil {
		return 0, err
	}
	return act - a.PlannedDuration(), nil
}

// ErrOngoing is returned when a measurement requires a closed avail.
var ErrOngoing = errors.New("avail is ongoing")

// LogicalTime computes t* for physical time t (paper Eq. 1):
//
//	t* = (t - t_actS) / s_plan × 100
//
// The result may be negative (before actual start) or exceed 100 (running
// past plan). An error is returned for a degenerate zero-length plan.
func (a *Avail) LogicalTime(t Day) (float64, error) {
	plan := a.PlannedDuration()
	if plan <= 0 {
		return 0, fmt.Errorf("domain: avail %d has non-positive planned duration %d", a.ID, plan)
	}
	return float64(t-a.ActStart) / float64(plan) * 100, nil
}

// PhysicalTime inverts LogicalTime: the Day at which the avail reaches
// logical time ts (percent). Fractional days round toward zero.
func (a *Avail) PhysicalTime(ts float64) Day {
	return a.ActStart + Day(ts/100*float64(a.PlannedDuration()))
}

// Validate checks internal consistency of the avail record.
func (a *Avail) Validate() error {
	if a.PlanEnd <= a.PlanStart {
		return fmt.Errorf("domain: avail %d: plan end %v not after plan start %v", a.ID, a.PlanEnd, a.PlanStart)
	}
	if a.Status == StatusClosed && a.ActEnd < a.ActStart {
		return fmt.Errorf("domain: avail %d: actual end %v before actual start %v", a.ID, a.ActEnd, a.ActStart)
	}
	return nil
}

// RCCType categorizes a Request for Contract Change (paper §2): Growth
// upgrades existing systems, New Work creates new ones, New Growth adds
// distinct components.
type RCCType int

const (
	// Growth (G) work upgrades existing ship systems.
	Growth RCCType = iota
	// NewWork (NW) creates new systems.
	NewWork
	// NewGrowth (NG) adds distinct components.
	NewGrowth

	// NumRCCTypes is the number of concrete RCC types.
	NumRCCTypes = 3
)

// String returns the paper's abbreviation for the type.
func (t RCCType) String() string {
	switch t {
	case Growth:
		return "G"
	case NewWork:
		return "NW"
	case NewGrowth:
		return "NG"
	default:
		return fmt.Sprintf("RCCType(%d)", int(t))
	}
}

// ParseRCCType parses the paper's abbreviations G, NW, NG.
func ParseRCCType(s string) (RCCType, error) {
	switch s {
	case "G":
		return Growth, nil
	case "NW":
		return NewWork, nil
	case "NG":
		return NewGrowth, nil
	}
	return 0, fmt.Errorf("domain: unknown RCC type %q", s)
}

// RCC is one Request for Contract Change
// r_j = <j, a_i, w_j, t_s, t_e, m_j> (paper §2, Table 3).
type RCC struct {
	ID      int
	AvailID int
	Type    RCCType
	// SWLIN is the 8-digit hierarchical Ship Work List Number packed as an
	// integer (see package swlin for structure and formatting).
	SWLIN int
	// Created is the creation date t_s; Settled the settlement date t_e.
	Created Day
	Settled Day
	// Amount m_j is the settled dollar amount.
	Amount float64
}

// Duration returns the RCC's open interval length in days.
func (r *RCC) Duration() int { return int(r.Settled - r.Created) }

// Validate checks internal consistency of the RCC record.
func (r *RCC) Validate() error {
	if r.Settled < r.Created {
		return fmt.Errorf("domain: rcc %d: settled %v before created %v", r.ID, r.Settled, r.Created)
	}
	if r.Amount < 0 {
		return fmt.Errorf("domain: rcc %d: negative amount %f", r.ID, r.Amount)
	}
	return nil
}

// RCCStatus classifies an RCC relative to a logical timestamp t* (paper
// §3.1): an RCC is Active when it has been created but not yet settled,
// Settled once its settlement date has passed, and Created if either holds.
type RCCStatus int

const (
	// Active: created <= t* < settled.
	Active RCCStatus = iota
	// SettledStatus: settled <= t*.
	SettledStatus
	// Created: created <= t* (union of Active and Settled).
	Created

	// NumRCCStatuses counts the classification buckets above.
	NumRCCStatuses = 3
)

// String implements fmt.Stringer.
func (s RCCStatus) String() string {
	switch s {
	case Active:
		return "ACTIVE"
	case SettledStatus:
		return "SETTLED"
	case Created:
		return "CREATED"
	default:
		return fmt.Sprintf("RCCStatus(%d)", int(s))
	}
}

// StatusAt classifies the RCC at logical day t (both in the same logical or
// physical scale as Created/Settled). The boolean reports whether the RCC is
// visible at all (created by t).
func (r *RCC) StatusAt(t Day) (RCCStatus, bool) {
	if t < r.Created {
		return 0, false
	}
	if t < r.Settled {
		return Active, true
	}
	return SettledStatus, true
}
