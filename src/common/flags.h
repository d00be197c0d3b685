// Tiny command-line flag parser used by benches and examples.
//
// Supports "--name=value" and "--name value" forms plus boolean switches
// ("--full"). Unknown flags — and unparsable numeric values — abort with a
// usage message so typos in experiment scripts fail loudly instead of
// silently running the default configuration.
#ifndef GCON_COMMON_FLAGS_H_
#define GCON_COMMON_FLAGS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace gcon {

/// Parsed command-line flags. Values are stored as strings and converted on
/// access; every accessor takes a default returned when the flag is absent.
class Flags {
 public:
  /// Parses argv. `spec` maps flag name -> help text; flags outside the spec
  /// cause an abort with the rendered usage. Names in `switches` are boolean
  /// switches: "--share-data eval" leaves "eval" positional instead of
  /// consuming it as the flag's value (the "--name=value" form still works
  /// for them, e.g. "--share-data=false"). Flags outside `switches` keep the
  /// greedy "--name value" behavior. Positional arguments are kept in order
  /// and available via positional().
  Flags(int argc, char** argv, const std::map<std::string, std::string>& spec,
        const std::set<std::string>& switches = {});

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  /// Numeric accessors parse the whole stored value; a malformed one
  /// ("--runs=abc", "--runs=12abc", an out-of-range literal) aborts with a
  /// message naming the flag plus the rendered usage, exit code 2.
  int GetInt(const std::string& name, int default_value) const;
  /// GetInt plus a positivity requirement: 0 and negatives abort with a
  /// message naming the flag ("--threads: ... expected a positive
  /// integer"). For knobs where zero is not a mode but a mistake
  /// (serve --max_batch, eval --runs).
  int GetPositiveInt(const std::string& name, int default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// Every value given for a repeatable flag, in command-line order
  /// ("--set a=1 --set b=2" -> {"a=1", "b=2"}); empty when absent. The
  /// scalar accessors above return the last occurrence.
  std::vector<std::string> GetList(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Renders the usage string from the spec given to the constructor.
  std::string Usage() const;

 private:
  /// Prints "Invalid value for --name ..." plus Usage() and exits 2.
  [[noreturn]] void InvalidValue(const std::string& name,
                                 const std::string& value,
                                 const char* expected) const;

  std::string program_;
  std::map<std::string, std::string> spec_;
  std::map<std::string, std::string> values_;
  std::map<std::string, std::vector<std::string>> all_values_;
  std::vector<std::string> positional_;
};

/// Reads an integer from the environment, returning `default_value` when the
/// variable is unset or unparsable. Used for bench scaling knobs.
int EnvInt(const char* name, int default_value);

/// Reads a boolean ("1"/"true"/"yes") from the environment.
bool EnvBool(const char* name, bool default_value);

}  // namespace gcon

#endif  // GCON_COMMON_FLAGS_H_
