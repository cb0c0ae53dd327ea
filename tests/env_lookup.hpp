// A stand-in environment for exec::from_env in tests: the variables are
// a map, so no test sets or unsets the process environment.
#pragma once

#include <map>
#include <string>
#include <utility>

#include "exec/config.hpp"

namespace scsq {

inline exec::EnvLookup env_of(std::map<std::string, std::string> vars) {
  return [vars = std::move(vars)](const char* name) -> const char* {
    const auto it = vars.find(name);
    return it == vars.end() ? nullptr : it->second.c_str();
  };
}

}  // namespace scsq
