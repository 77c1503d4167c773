package server

import (
	"net/http"

	"svmsim/internal/exp"
	"svmsim/internal/twin"
)

// The twin endpoints are synchronous: they answer from the calibrated
// analytical model on the request goroutine and never touch the job queue,
// worker pool or result store. Lazy calibration is the one exception to
// "never simulates" — a workload/axis seen for the first time runs its
// anchor simulations through the suite (sharing its memo and disk cache)
// before the model can answer; subsequent requests are microseconds.

// handleTwinPredict serves POST /v1/twin/predict: a CellSpec body, a
// Prediction response.
func (s *Server) handleTwinPredict(w http.ResponseWriter, r *http.Request) {
	var spec exp.CellSpec
	if !decodeSpec(w, r, &spec) {
		return
	}
	cell, err := s.suite.ResolveCell(spec)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	p, err := s.twin.PredictCalibrating(s.suite, cell)
	if err != nil {
		writeTwinError(w, err)
		return
	}
	s.metrics.twinPredictions.Inc()
	WriteJSON(w, http.StatusOK, p)
}

// handleTwinOptimize serves POST /v1/twin/optimize: an OptimizeSpec body, a
// Choice response ("cheapest studied configuration achieving speedup ≥ S").
func (s *Server) handleTwinOptimize(w http.ResponseWriter, r *http.Request) {
	var spec twin.OptimizeSpec
	if !decodeSpec(w, r, &spec) {
		return
	}
	if spec.Schema != 0 && spec.Schema != exp.SchemaVersion {
		WriteError(w, http.StatusBadRequest, "bad_request", "unsupported schema version")
		return
	}
	choice, err := s.twin.OptimizeCalibrating(s.suite, spec)
	if err != nil {
		writeTwinError(w, err)
		return
	}
	s.metrics.twinPredictions.Inc()
	WriteJSON(w, http.StatusOK, choice)
}

// writeTwinError maps a twin failure onto the structured error envelope:
// deterministic model verdicts (uncalibrated, infeasible) are 422 — the
// request was well-formed but the model cannot honor it; typed simulation
// failures during lazy calibration are 500 with their structured kind; and
// everything else (unknown workloads, bad modes) is a 400.
func writeTwinError(w http.ResponseWriter, err error) {
	kind := exp.ErrKind(err)
	switch kind {
	case "uncalibrated", "infeasible":
		WriteError(w, http.StatusUnprocessableEntity, kind, err.Error())
	case "failed":
		WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
	default:
		WriteError(w, http.StatusInternalServerError, kind, err.Error())
	}
}
