# The simulator's build-info stamp resolves its script against the
# top-level source directory, which for this standalone build is
# perfbench/. Forward to the repository's own script.
include(${CMAKE_CURRENT_LIST_DIR}/../../cmake/GenBuildInfo.cmake)
