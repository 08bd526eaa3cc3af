/**
 * @file
 * The leveled logger and the gem5-style reporting helpers.
 *
 * panic() is for internal simulator bugs (aborts); fatal() is for user
 * configuration errors (clean exit); warn()/inform() report conditions
 * without stopping the simulation.
 *
 * Every line of run chatter (progress, artifact notes, warnings) goes
 * through one global level gate, so noisy surfaces can be silenced
 * without touching call sites: a scripted sweep, for example, can keep
 * stderr free of interleaved worker progress with --log-level warn.
 *
 * Levels, most to least severe: error > warn > info > debug. The
 * default is info. Two knobs select the threshold:
 *   - the ESPSIM_LOG environment variable ("error", "warn", "info",
 *     "debug"), read once on first use,
 *   - `--log-level <name>` on the espsim CLI (calls setLogLevel()).
 *
 * warn() and inform() are gated at their levels; panic() and fatal()
 * always print — a dying process must say why regardless of verbosity.
 */

#ifndef ESPSIM_COMMON_LOGGING_HH
#define ESPSIM_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace espsim
{

/** Severity threshold of one log line (and of the global gate). */
enum class LogLevel : int
{
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
};

/** Stable lowercase token for @p level ("error", "warn", ...). */
const char *logLevelName(LogLevel level);

/** Parse a level token; @return false (and leave @p out) on unknown. */
bool parseLogLevel(const std::string &name, LogLevel &out);

/**
 * The current global threshold. First call resolves the ESPSIM_LOG
 * environment variable (malformed values keep the info default).
 */
LogLevel logLevel();

/** Override the global threshold (CLI --log-level). Thread-safe. */
void setLogLevel(LogLevel level);

/** Would a line at @p level print right now? */
bool logEnabled(LogLevel level);

/**
 * Print "prefix: message\n" to stderr iff @p level passes the gate.
 * @p prefix may be null for bare chatter lines (progress, "# wrote").
 */
void vlogLine(LogLevel level, const char *prefix, const char *fmt,
              std::va_list args);

/** printf-style bare chatter line (no prefix) gated at @p level. */
void logLine(LogLevel level, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/** Report an internal simulator bug and abort(). */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an unrecoverable user/configuration error and exit(1). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious condition; the simulation continues. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report a normal status message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace espsim

#endif // ESPSIM_COMMON_LOGGING_HH
