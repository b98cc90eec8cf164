# Build file of the hpsum benchmark harness.
#
# The repository's listfiles address their sources through
# CMAKE_SOURCE_DIR, so the harness is built inside the repository's own
# build, hooked in at the end of its project() call:
#
#   cmake -S . -B .bench_build -DCMAKE_BUILD_TYPE=Release \
#     -DHPSUM_BUILD_TESTS=OFF -DHPSUM_BUILD_BENCH=OFF \
#     -DCMAKE_PROJECT_hpsum_INCLUDE=$PWD/perfbench/hpsum_perf.cmake
#   cmake --build .bench_build --target hpsum_perf exact_sum_cli
#
# perfbench/run.py does exactly this before each run. The library keeps the
# repository's defaults (HPSUM_TRACE=ON, HPSUM_SIMD=AUTO).
add_executable(hpsum_perf
  ${CMAKE_CURRENT_LIST_DIR}/hpsum_perf.cpp
  ${CMAKE_CURRENT_LIST_DIR}/oracle.cpp)
# This file runs before the repository sets its language standard, and the
# library targets it links are defined after it; both resolve at generate
# time.
set_target_properties(hpsum_perf PROPERTIES
  CXX_STANDARD 20 CXX_STANDARD_REQUIRED ON CXX_EXTENSIONS OFF)
target_link_libraries(hpsum_perf PRIVATE hpsum hpsum_warnings)
