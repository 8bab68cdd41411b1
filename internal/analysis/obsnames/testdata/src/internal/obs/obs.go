// Package obs is a minimal stub of the real internal/obs package, just
// enough surface for the obsnames testdata to type-check. The analyzer
// matches it by path suffix.
package obs

type Registry struct{}

func NewRegistry() *Registry { return &Registry{} }

type Counter struct{}
type Gauge struct{}
type Histogram struct{}

func (r *Registry) Counter(name string) *Counter                  { return &Counter{} }
func (r *Registry) Gauge(name string) *Gauge                      { return &Gauge{} }
func (r *Registry) GaugeFunc(name string, fn func() float64)      {}
func (r *Registry) Histogram(name string, b []float64) *Histogram { return &Histogram{} }
