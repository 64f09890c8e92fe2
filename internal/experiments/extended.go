package experiments

import (
	"fmt"

	"photodtn/internal/runner"
)

// ExtendedComparison is a repository addition beyond the paper's figures:
// every constrained scheme — the paper's four plus the classic Epidemic and
// PROPHET-forwarding baselines from the DTN-routing literature the paper
// cites — on the MIT scenario. It separates the two ingredients of our
// scheme's win: mobility awareness (PROPHET beats Spray&Wait) and coverage
// awareness (ours beats everything content-blind).
func ExtendedComparison(opts Options) (*Figure, error) {
	opts = opts.normalized()
	p := DefaultParams(MIT)
	p.SampleHours = 25
	p.Obs = opts.Obs
	if opts.Quick {
		p.SpanHours = 60
		p.SampleHours = 20
	}
	schemes := []string{
		SchemeOurs, SchemeNoMetadata, SchemeModifiedSpray,
		SchemeSprayAndWait, SchemeEpidemic, SchemeProphet,
	}
	fig := &Figure{
		ID:     "extended",
		Title:  "Extended comparison: all constrained schemes (MIT-like trace, 0.6 GB, 250 photos/h)",
		XLabel: "time (hours)",
		Notes: []string{
			fmt.Sprintf("averaged over %d runs", opts.Runs),
			"repository addition: Epidemic and PROPHET are not in the paper's Fig. 5",
		},
	}
	jobs := make([]runner.Job, len(schemes))
	for i, scheme := range schemes {
		jobs[i] = schemeJob(p, scheme, opts.Runs)
	}
	avgs, err := runJobs("extended", jobs, opts)
	if err != nil {
		return nil, err
	}
	for i, scheme := range schemes {
		fig.Series = append(fig.Series, timeSeries(scheme, avgs[i]))
	}
	return fig, nil
}
