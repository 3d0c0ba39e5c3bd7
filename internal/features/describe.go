package features

import (
	"fmt"
	"strings"

	"domd/internal/domain"
	"domd/internal/statusq"
)

// Describe renders a feature name as the sentence an SME reviews when
// validating the top-5 drivers of a prediction (paper §5.2.5). It accepts
// static names, generated names like "G4-SETTLED_AVG_SETTLED_AMT", and the
// stacked architecture's synthetic "STATIC_PRED" input.
func Describe(name string) (string, error) {
	if desc, ok := staticDescriptions[name]; ok {
		return desc, nil
	}
	if name == "STATIC_PRED" {
		return staticPredDescription, nil
	}
	spec, err := ParseName(name)
	if err != nil {
		return "", err
	}
	typ := "of any type"
	if spec.Type != nil {
		typ = typeDescriptions[*spec.Type]
	}
	where := "anywhere on the ship"
	if spec.Subsystem >= 0 {
		where = fmt.Sprintf("in SWLIN subsystem %d", spec.Subsystem)
	}
	return fmt.Sprintf("%s %s %s, %s", aggDescriptions[spec.Agg], typ, where, statusDescriptions[spec.Status]), nil
}

// DescribeAll maps each name Describe accepts, plus "STATIC_PRED", to its
// sentence: the table a server renders drivers from, built once per
// extractor instead of parsing names on every request. Names Describe
// rejects are left out.
func DescribeAll(names []string) map[string]string {
	out := map[string]string{"STATIC_PRED": staticPredDescription}
	for _, name := range names {
		if desc, err := Describe(name); err == nil {
			out[name] = desc
		}
	}
	return out
}

const staticPredDescription = "base delay prediction from the static model (stacked architecture)"

var typeDescriptions = map[domain.RCCType]string{
	domain.Growth:    "of type Growth (upgrades to existing systems)",
	domain.NewWork:   "of type New Work (newly created systems)",
	domain.NewGrowth: "of type New Growth (distinct added components)",
}

var statusDescriptions = map[domain.RCCStatus]string{
	domain.Active:        "currently active (created but not yet settled)",
	domain.SettledStatus: "already settled",
	domain.Created:       "created so far",
}

var aggDescriptions = map[statusq.Aggregate]string{
	statusq.Count:       "number of RCCs",
	statusq.SumAmount:   "total settled dollars of RCCs",
	statusq.AvgAmount:   "average settled dollars per RCC",
	statusq.MaxAmount:   "largest settled amount among RCCs",
	statusq.MinAmount:   "smallest settled amount among RCCs",
	statusq.StdAmount:   "dollar-amount spread (std dev) of RCCs",
	statusq.SumDuration: "total open-days of RCCs",
	statusq.AvgDuration: "average open-days per RCC",
	statusq.MaxDuration: "longest open interval among RCCs",
	statusq.Pct:         "share of visible RCCs that are RCCs",
	statusq.Rate:        "RCC arrival rate (count per % of plan) for RCCs",
}

var staticDescriptions = map[string]string{
	"SHIP_CLASS":       "ship hull class",
	"RMC_ID":           "regional maintenance center",
	"SHIP_AGE":         "ship age at planned start (years)",
	"PLANNED_DURATION": "planned maintenance duration (days)",
	"PLANNED_COST":     "planned contract cost (dollars)",
	"PRIOR_AVAILS":     "number of prior availabilities for this hull",
	"DOCK_TYPE":        "dry dock (1) vs pier-side (0)",
	"HOMEPORT_DIST":    "distance from homeport to the maintenance center (nmi)",
}

// ParseName inverts Spec.Name: "G4-SETTLED_AVG_SETTLED_AMT" → its Spec.
func ParseName(name string) (Spec, error) {
	dash := strings.IndexByte(name, '-')
	if dash < 0 {
		return Spec{}, fmt.Errorf("features: %q is not a generated feature name", name)
	}
	head, tail := name[:dash], name[dash+1:]

	spec := Spec{Subsystem: -1}
	// Head: type prefix (G | NW | NG | ALL) followed by subsystem (digit
	// or ALL).
	var rest string
	switch {
	case strings.HasPrefix(head, "ALL"):
		rest = head[3:]
	case strings.HasPrefix(head, "NW"):
		t := domain.NewWork
		spec.Type = &t
		rest = head[2:]
	case strings.HasPrefix(head, "NG"):
		t := domain.NewGrowth
		spec.Type = &t
		rest = head[2:]
	case strings.HasPrefix(head, "G"):
		t := domain.Growth
		spec.Type = &t
		rest = head[1:]
	default:
		return Spec{}, fmt.Errorf("features: unknown type prefix in %q", name)
	}
	switch {
	case rest == "ALL":
		spec.Subsystem = -1
	case len(rest) == 1 && rest[0] >= '0' && rest[0] <= '9':
		spec.Subsystem = int(rest[0] - '0')
	default:
		return Spec{}, fmt.Errorf("features: bad subsystem %q in %q", rest, name)
	}

	// Tail: STATUS_AGG.
	found := false
	for _, st := range []domain.RCCStatus{domain.Active, domain.SettledStatus, domain.Created} {
		prefix := st.String() + "_"
		if strings.HasPrefix(tail, prefix) {
			spec.Status = st
			tail = tail[len(prefix):]
			found = true
			break
		}
	}
	if !found {
		return Spec{}, fmt.Errorf("features: missing status in %q", name)
	}
	for agg := statusq.Aggregate(0); agg < statusq.NumAggregates; agg++ {
		if tail == agg.String() {
			spec.Agg = agg
			return spec, nil
		}
	}
	return Spec{}, fmt.Errorf("features: unknown aggregate %q in %q", tail, name)
}
