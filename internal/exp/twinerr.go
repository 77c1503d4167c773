package exp

import "fmt"

// UncalibratedError reports a twin prediction or optimization request for a
// (workload, mode, parameter) combination the analytical twin has no
// calibrated model for — either calibration never ran, or the requested cell
// deviates from the calibrated baseline on a dimension outside the model
// (interrupt policy, request handling, fault plans, a foreign topology).
// Like the serving-layer job errors it lives in exp rather than
// internal/twin: its row in the error taxonomy (codec.go) must name it, and
// exp cannot import the twin package that raises it (twin sits above exp in
// the import graph). Package twin re-exports it as a type alias.
type UncalibratedError struct {
	// Workload and Mode identify the model that was consulted.
	Workload string
	Mode     string
	// Reason says what exactly is outside the calibrated model.
	Reason string
}

func (e *UncalibratedError) Error() string {
	return fmt.Sprintf("twin has no calibrated model for %s/%s: %s", e.Workload, e.Mode, e.Reason)
}

// InfeasibleError reports an optimization query no configuration in the
// studied parameter space can satisfy: even with every communication
// parameter at its most aggressive studied value the predicted speedup stays
// below the requested minimum. It carries the best achievable prediction so
// callers can report how far short the parameter space falls. It lives in
// exp for the same import-graph reason as UncalibratedError.
type InfeasibleError struct {
	// Workload and Mode identify the model that was searched.
	Workload string
	Mode     string
	// MinSpeedup is the requested constraint.
	MinSpeedup float64
	// Best is the highest predicted speedup in the studied space.
	Best float64
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("no studied configuration reaches speedup %.3g for %s/%s (best predicted: %.3g)",
		e.MinSpeedup, e.Workload, e.Mode, e.Best)
}
