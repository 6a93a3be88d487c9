/**
 * @file
 * Error and status reporting helpers in the spirit of gem5's
 * base/logging.hh.
 *
 * panic()  - an internal invariant was violated (simulator bug); aborts.
 * fatal()  - the user asked for something impossible (bad config); exits.
 * warn()   - functionality is approximated; simulation continues.
 */

#ifndef NETDIMM_SIM_LOGGING_HH
#define NETDIMM_SIM_LOGGING_HH

#include <cstdarg>
#include <string>

namespace netdimm
{

/** Print a formatted message tagged "panic:" and abort(). */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a formatted message tagged "fatal:" and exit(1). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a formatted warning to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Print a formatted debug message to stderr. Off unless the
 * NETDIMM_DEBUG environment variable is set.
 */
void debugLog(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Globally silence warn() (benches use this). */
void setQuiet(bool quiet);

} // namespace netdimm

/**
 * Assert-like invariant check that survives NDEBUG builds. Use for
 * simulator-bug conditions on hot-but-not-critical paths.
 */
#define ND_ASSERT(cond, ...)                                        \
    do {                                                            \
        if (!(cond)) {                                              \
            ::netdimm::panic("assertion '%s' failed at %s:%d",      \
                             #cond, __FILE__, __LINE__);            \
        }                                                           \
    } while (0)

#endif // NETDIMM_SIM_LOGGING_HH
