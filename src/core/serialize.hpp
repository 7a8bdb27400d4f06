#ifndef IMC_CORE_SERIALIZE_HPP
#define IMC_CORE_SERIALIZE_HPP

/**
 * @file
 * Model persistence.
 *
 * Profiling is the expensive part of the methodology — on the paper's
 * real cluster each matrix entry is a full application execution — so
 * a production deployment profiles once and reuses the model until
 * the binary or the hardware changes (Section 4.4). This module
 * serializes an InterferenceModel to a small line-oriented text
 * format and restores it, with format versioning and full validation
 * on load.
 *
 * Format (one record per line, '#' comments ignored):
 *
 *   imc-model v1
 *   app <abbrev>
 *   policy <N MAX|N+1 MAX|ALL MAX|INTERPOLATE>
 *   score <bubble score>
 *   pressures <p1> <p2> ... <pn>
 *   row <i> <T[i][0]> <T[i][1]> ... <T[i][m]>   (n rows)
 */

#include <iosfwd>
#include <string>

#include "core/model.hpp"

namespace imc::core {

/** Write a model to a stream in the v1 text format. */
void save_model(std::ostream& os, const InterferenceModel& model);

/**
 * Read a model back.
 *
 * @throws ConfigError on any syntax, version, or validation problem
 */
InterferenceModel load_model(std::istream& is);

/**
 * Save to a file path: writes a unique sibling temp file and renames
 * it into place, so a concurrent reader — or the quarantine scan of a
 * later run — can never observe a torn, partially written file, and
 * concurrent writers of the same path leave one intact winner.
 * @throws ConfigError naming @p path on I/O error
 */
void save_model_file(const std::string& path,
                     const InterferenceModel& model);

/** Convenience: load from a file path. @throws ConfigError */
InterferenceModel load_model_file(const std::string& path);

/** Parse a policy name as printed by to_string(). @throws ConfigError */
HeteroPolicy policy_from_string(const std::string& name);

} // namespace imc::core

#endif // IMC_CORE_SERIALIZE_HPP
