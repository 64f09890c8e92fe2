package experiments

import (
	"fmt"

	"photodtn/internal/runner"
	"photodtn/internal/sim"
)

// timeSeries converts an averaged run into a Series over hours.
func timeSeries(label string, avg *sim.Average) Series {
	s := Series{Label: label}
	for _, sm := range avg.Samples {
		s.X = append(s.X, sm.Time/hour)
		s.PointFrac = append(s.PointFrac, sm.PointFrac)
		s.AspectDeg = append(s.AspectDeg, degrees(sm.AspectRad))
		s.Delivered = append(s.Delivered, sm.Delivered)
	}
	return s
}

// runJobs executes a figure's whole job matrix over one orchestrator pool —
// every (scheme, sweep point, run) cell shares the worker budget, so a slow
// scheme never serialises the figure — and returns one average per job, in
// job order.
func runJobs(figID string, jobs []runner.Job, opts Options) ([]*sim.Average, error) {
	aggs, err := runner.Run(opts.context(), jobs, opts.runnerOptions())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", figID, err)
	}
	return aggs, nil
}

// Fig5 reproduces Fig. 5: point and aspect coverage over time on the MIT
// trace for all five schemes (storage 0.6 GB, 250 photos/hour).
func Fig5(opts Options) (*Figure, error) {
	opts = opts.normalized()
	p := DefaultParams(MIT)
	p.SampleHours = 25
	p.Obs = opts.Obs
	if opts.Quick {
		p.SpanHours = 60
		p.SampleHours = 20
	}
	fig := &Figure{
		ID:     "fig5",
		Title:  "Coverage vs crowdsourcing time (MIT-like trace, 0.6 GB storage, 250 photos/h)",
		XLabel: "time (hours)",
		Notes:  []string{fmt.Sprintf("averaged over %d runs (paper: 50)", opts.Runs)},
	}
	jobs := make([]runner.Job, len(AllSchemes))
	for i, scheme := range AllSchemes {
		jobs[i] = schemeJob(p, scheme, opts.Runs)
	}
	avgs, err := runJobs("fig5", jobs, opts)
	if err != nil {
		return nil, err
	}
	for i, scheme := range AllSchemes {
		fig.Series = append(fig.Series, timeSeries(scheme, avgs[i]))
	}
	return fig, nil
}

// Fig6 reproduces Fig. 6: the effect of short contact durations on our
// scheme (2 MB/s radio), with ModifiedSpray at full duration as the
// reference the paper compares the 30-second case against.
func Fig6(opts Options) (*Figure, error) {
	opts = opts.normalized()
	type variant struct {
		label  string
		scheme string
		sec    float64
	}
	variants := []variant{
		{"Ours (10 min)", SchemeOurs, 600},
		{"Ours (2 min)", SchemeOurs, 120},
		{"Ours (1 min)", SchemeOurs, 60},
		{"Ours (30 s)", SchemeOurs, 30},
	}
	if opts.Quick {
		variants = variants[:2]
	}
	// Reference: ModifiedSpray with the full 10-minute durations.
	variants = append(variants, variant{"ModifiedSpray (10 min)", SchemeModifiedSpray, 600})
	fig := &Figure{
		ID:     "fig6",
		Title:  "Effect of contact duration (MIT-like trace, 2 MB/s, 0.6 GB storage)",
		XLabel: "time (hours)",
		Notes:  []string{fmt.Sprintf("averaged over %d runs (paper: 50)", opts.Runs)},
	}
	jobs := make([]runner.Job, len(variants))
	for i, v := range variants {
		p := DefaultParams(MIT)
		p.SampleHours = 25
		p.BandwidthMBs = 2
		p.ContactCapSec = v.sec
		p.Obs = opts.Obs
		if opts.Quick {
			p.SpanHours = 60
			p.SampleHours = 20
		}
		jobs[i] = schemeJob(p, v.scheme, opts.Runs)
	}
	avgs, err := runJobs("fig6", jobs, opts)
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		fig.Series = append(fig.Series, timeSeries(v.label, avgs[i]))
	}
	return fig, nil
}

// sweepFigure runs a parameter sweep and reports final metrics per value.
// The whole (scheme × value) matrix goes through one orchestrator pool.
func sweepFigure(id, title, xlabel string, kind TraceKind, values []float64,
	apply func(*Params, float64), schemes []string, opts Options) (*Figure, error) {
	fig := &Figure{
		ID:     id,
		Title:  title,
		XLabel: xlabel,
		Notes:  []string{fmt.Sprintf("averaged over %d runs (paper: 50)", opts.Runs)},
	}
	var jobs []runner.Job
	for _, scheme := range schemes {
		for _, v := range values {
			p := DefaultParams(kind)
			p.Obs = opts.Obs
			if opts.Quick {
				p.SpanHours = 60
			}
			apply(&p, v)
			jobs = append(jobs, schemeJob(p, scheme, opts.Runs))
		}
	}
	avgs, err := runJobs(id, jobs, opts)
	if err != nil {
		return nil, err
	}
	for si, scheme := range schemes {
		s := Series{Label: scheme}
		for vi, v := range values {
			avg := avgs[si*len(values)+vi]
			s.X = append(s.X, v)
			s.PointFrac = append(s.PointFrac, avg.Final.PointFrac)
			s.AspectDeg = append(s.AspectDeg, degrees(avg.Final.AspectRad))
			s.Delivered = append(s.Delivered, avg.Final.Delivered)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// fig7and8Schemes are the schemes shown in the storage and photo-rate
// sweeps.
var fig7and8Schemes = []string{
	SchemeBestPossible, SchemeOurs, SchemeNoMetadata,
	SchemeModifiedSpray, SchemeSprayAndWait,
}

// Fig7 reproduces Fig. 7(a–c) or (d–f): final coverage and delivered-photo
// count versus storage capacity, on the chosen trace, at 250 photos/hour.
func Fig7(kind TraceKind, opts Options) (*Figure, error) {
	opts = opts.normalized()
	values := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	if opts.Quick {
		values = []float64{0.2, 0.6}
	}
	id := "fig7-mit"
	if kind == Cambridge {
		id = "fig7-cam"
	}
	return sweepFigure(id,
		fmt.Sprintf("Effect of storage capacity (%v trace, 250 photos/h)", kind),
		"storage (GB)", kind, values,
		func(p *Params, v float64) { p.StorageGB = v },
		fig7and8Schemes, opts)
}

// Fig8 reproduces Fig. 8(a–c) or (d–f): final coverage and delivered-photo
// count versus the photo generation rate, at 0.6 GB storage.
func Fig8(kind TraceKind, opts Options) (*Figure, error) {
	opts = opts.normalized()
	values := []float64{50, 100, 250, 400, 500}
	if opts.Quick {
		values = []float64{50, 250}
	}
	id := "fig8-mit"
	if kind == Cambridge {
		id = "fig8-cam"
	}
	return sweepFigure(id,
		fmt.Sprintf("Effect of photo generation rate (%v trace, 0.6 GB storage)", kind),
		"photos per hour", kind, values,
		func(p *Params, v float64) { p.PhotosPerHour = v },
		fig7and8Schemes, opts)
}
