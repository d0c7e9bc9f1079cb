package sim

import (
	"math"
	"math/rand"
)

// Dist is a distribution of nonnegative durations (seconds).
type Dist interface {
	// Sample draws one value using r.
	Sample(r *rand.Rand) float64
	// Mean returns the distribution mean.
	Mean() float64
}

// Deterministic always returns V.
type Deterministic struct{ V float64 }

// Sample implements Dist.
func (d Deterministic) Sample(*rand.Rand) float64 { return d.V }

// Mean implements Dist.
func (d Deterministic) Mean() float64 { return d.V }

// Exponential has rate 1/MeanV.
type Exponential struct{ MeanV float64 }

// Sample implements Dist.
func (d Exponential) Sample(r *rand.Rand) float64 { return r.ExpFloat64() * d.MeanV }

// Mean implements Dist.
func (d Exponential) Mean() float64 { return d.MeanV }

// Uniform is uniform on [Low, High].
type Uniform struct{ Low, High float64 }

// Sample implements Dist.
func (d Uniform) Sample(r *rand.Rand) float64 { return d.Low + r.Float64()*(d.High-d.Low) }

// Mean implements Dist.
func (d Uniform) Mean() float64 { return (d.Low + d.High) / 2 }

// LogNormal is parameterized directly by its mean and the coefficient of
// variation CV (stddev/mean), which is how service-time variability is
// naturally specified when calibrating against measured latencies.
//
// A literal derives the underlying normal's parameters on every draw;
// NewLogNormal derives them once, so build a new value rather than editing
// MeanV or CV of a constructed one. Both forms draw bit-identical values.
type LogNormal struct {
	MeanV float64
	CV    float64

	mu, sigma float64 // set by NewLogNormal; sigma == 0 means "derive per draw"
}

// NewLogNormal returns a LogNormal with its per-draw constants hoisted.
func NewLogNormal(mean, cv float64) LogNormal {
	d := LogNormal{MeanV: mean, CV: cv}
	if cv > 0 {
		d.mu, d.sigma = d.params()
	}
	return d
}

// params returns the underlying normal's mean and standard deviation.
func (d LogNormal) params() (mu, sigma float64) {
	sigma2 := math.Log(1 + d.CV*d.CV)
	return math.Log(d.MeanV) - sigma2/2, math.Sqrt(sigma2)
}

// Sample implements Dist.
func (d LogNormal) Sample(r *rand.Rand) float64 {
	if d.sigma > 0 {
		return math.Exp(d.mu + d.sigma*r.NormFloat64())
	}
	if d.CV <= 0 {
		return d.MeanV
	}
	mu, sigma := d.params()
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Mean implements Dist.
func (d LogNormal) Mean() float64 { return d.MeanV }

// TruncNormal is a normal distribution truncated at zero (resampled).
type TruncNormal struct{ MeanV, StdDev float64 }

// Sample implements Dist.
func (d TruncNormal) Sample(r *rand.Rand) float64 {
	for i := 0; i < 64; i++ {
		v := d.MeanV + d.StdDev*r.NormFloat64()
		if v >= 0 {
			return v
		}
	}
	return 0
}

// Mean implements Dist (approximate when truncation mass is significant).
func (d TruncNormal) Mean() float64 { return d.MeanV }
