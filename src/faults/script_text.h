// The text grammar shared by fault-plan scripts (fault_plan.h) and
// grid-event scripts (fault_domain.h):
//
//   script := entry (';' entry)*
//   entry  := head '@' start '+' duration ['x' severity]
//
// Each grammar reads its own head; splitting, the timing and number
// formatting live here once. `noun` names an entry in diagnostics ("fault
// entry", "grid event"), and every diagnostic quotes the offending entry.
#pragma once

#include <string>
#include <vector>

namespace epm::faults {

/// `s` without leading and trailing whitespace.
std::string trim(const std::string& s);

/// The trimmed, non-empty entries of a script, in order.
std::vector<std::string> script_entries(const std::string& spec);

/// The part of `entry` before its '@'; throws unless there is exactly one.
std::string script_head(const std::string& entry, const char* noun);

struct ScriptTiming {
  double start_s = 0.0;
  double duration_s = 0.0;
  double severity = 1.0;  ///< 1 when the entry has no 'x' part
};

/// The timing after the '@' of an entry script_head accepted. Numbers must
/// be finite; their ranges are each grammar's to check.
ScriptTiming script_timing(const std::string& entry, const char* noun);

/// "@start+duration", then "xseverity" unless the severity is 1; numbers in
/// the shortest form that parses back to the same double.
std::string format_script_timing(double start_s, double duration_s,
                                 double severity);

}  // namespace epm::faults
