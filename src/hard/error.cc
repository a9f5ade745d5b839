#include "src/hard/error.h"

namespace camo::hard {

const char *
errorKindName(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::Config: return "config";
      case ErrorKind::Invariant: return "invariant";
      case ErrorKind::Watchdog: return "watchdog";
      case ErrorKind::Transient: return "transient";
      case ErrorKind::Leakage: return "leakage";
    }
    return "?";
}

int
exitCode(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::Config: return 3;
      case ErrorKind::Invariant: return 4;
      case ErrorKind::Watchdog: return 5;
      case ErrorKind::Leakage: return 6;
      case ErrorKind::Transient: return kExitRuntime;
    }
    return kExitRuntime;
}

} // namespace camo::hard
