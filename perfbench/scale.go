package main

// scale fixes the problem size of every workload. fullScale is the
// benchmark; tinyScale keeps the same shapes small enough for the smoke
// test.
type scale struct {
	Name string `json:"name"`
	// SetupReps is the least number of times a measured run repeats
	// its set-up; setup_s is their median.
	SetupReps int `json:"setup_reps"`

	// paper-search: ring of 2^SearchLg nodes, ℓ = lg n, each node
	// failed with probability SearchFail. SearchPairs fixed (from, to)
	// pairs give the model metrics; the timed loop cycles them.
	SearchLg    int     `json:"search_lg"`
	SearchFail  float64 `json:"search_fail"`
	SearchPairs int     `json:"search_pairs"`

	// paper-maintain: ring of 2^MaintLg points, ℓ = MaintLinks, half
	// the points added in set-up. The model metrics come from
	// MaintSearches searches after MaintModelOps maintenance calls,
	// with each node failed with probability MaintFail.
	MaintLg       int     `json:"maint_lg"`
	MaintLinks    int     `json:"maint_links"`
	MaintModelOps int     `json:"maint_model_ops"`
	MaintSearches int     `json:"maint_searches"`
	MaintFail     float64 `json:"maint_fail"`

	// knee-sweep: 2-D torus of side KneeSide, each node failed with
	// probability KneeFail, 3·nodes Zipf(1) messages per sweep point.
	KneeSide int     `json:"knee_side"`
	KneeFail float64 `json:"knee_fail"`

	// churn-pit-sharded: healthy 2-D torus of side ChurnSide, 4·nodes
	// Zipf(1) messages per run, each run on a freshly built graph.
	ChurnSide int `json:"churn_side"`

	// Instances is how many independent instances (graph and traffic)
	// a measured knee-sweep or churn-pit-sharded run draws from its
	// seed and cycles through, so one seed's hot keys do not set the
	// throughput alone. The traced run uses the first.
	Instances int `json:"instances"`

	// Traced-run probes: TracedSearches searches in route decompositions,
	// ProbeCalls calls per metric-layer probe, ConstructProbe points
	// grown by the construct probe on workloads that bypass construct.
	TracedSearches int `json:"traced_searches"`
	ProbeCalls     int `json:"probe_calls"`
	ConstructProbe int `json:"construct_probe"`
}

var fullScale = scale{
	Name:           "full",
	SetupReps:      3,
	SearchLg:       17,
	SearchFail:     0.5,
	SearchPairs:    60000,
	MaintLg:        16,
	MaintLinks:     16,
	MaintModelOps:  20000,
	MaintSearches:  60000,
	MaintFail:      0.5,
	KneeSide:       91,
	KneeFail:       0.3,
	ChurnSide:      128,
	Instances:      3,
	TracedSearches: 20000,
	ProbeCalls:     1 << 20,
	ConstructProbe: 4096,
}

var tinyScale = scale{
	Name:           "tiny",
	SetupReps:      2,
	SearchLg:       10,
	SearchFail:     0.3,
	SearchPairs:    500,
	MaintLg:        10,
	MaintLinks:     10,
	MaintModelOps:  200,
	MaintSearches:  500,
	MaintFail:      0.3,
	KneeSide:       16,
	KneeFail:       0.3,
	ChurnSide:      24,
	Instances:      2,
	TracedSearches: 300,
	ProbeCalls:     1 << 12,
	ConstructProbe: 128,
}
