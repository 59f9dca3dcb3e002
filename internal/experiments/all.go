package experiments

import "fmt"

// Experiment names one regenerable artefact.
type Experiment struct {
	ID  string
	Run func(l *Lab) (*Result, error)
}

// All lists every table and figure of §V plus the repository's extra
// ablations, in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig5", (*Lab).Fig5},
		{"fig6", (*Lab).Fig6},
		{"fig7", (*Lab).Fig7},
		{"tab3", (*Lab).Table3},
		{"fig8", (*Lab).Fig8},
		{"fig9", (*Lab).Fig9},
		{"fig10", (*Lab).Fig10},
		{"fig11", (*Lab).Fig11},
		{"fig12", (*Lab).Fig12},
		{"fig13", (*Lab).Fig13},
		{"tab4", (*Lab).Table4},
		{"fig14a", (*Lab).Fig14a},
		{"fig14b", (*Lab).Fig14b},
		{"tab5", (*Lab).Table5},
		{"fig15", (*Lab).Fig15},
		{"fig16", (*Lab).Fig16},
		{"fig17", (*Lab).Fig17},
		{"fig18", (*Lab).Fig18},
		{"fig19", (*Lab).Fig19},
		{"fig20", (*Lab).Fig20},
		{"fig21", (*Lab).Fig21},
		{"ablate-filter", (*Lab).AblationPartitionFilter},
		{"ablate-probtradeoff", (*Lab).AblationProbTradeoff},
		{"ablate-queue", (*Lab).AblationQueue},
		{"ablate-landmark", (*Lab).AblationLandmark},
		{"ablate-batch-assign", (*Lab).AblationBatchAssign},
		{"ablate-surge", (*Lab).AblationSurge},
		{"ablate-hotspot", (*Lab).AblationHotspot},
		{"ablate-shift", (*Lab).AblationShiftChange},
		{"ablate-meeting-points", (*Lab).AblationMeetingPoints},
		{"verify", (*Lab).Verify},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
