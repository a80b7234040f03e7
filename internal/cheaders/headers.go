// Package cheaders provides the C standard library headers served to
// #include by the preprocessor. The declarations match the native builtins
// implemented in internal/interp. The exact-width types and the integer
// limits come from the predefined data-model macros (__INT64_TYPE__,
// __LONG_MAX__, ...), which the driver sets from the compilation's model.
//
// The headers are scanned once, when the package is initialized; every
// preprocessor that includes one splices the same scanned tokens.
package cheaders

import "repro/internal/cpp"

// Resolver serves the built-in headers.
func Resolver() cpp.Resolver { return builtin }

var builtin = cpp.NewHeaderSet(headers)

// headers maps header names to their contents. An edit must keep the
// lines that emit tokens where they are, or the line markers of every
// unit that includes the header move.
var headers = map[string]string{
	"stddef.h": `#ifndef _STDDEF_H
#define _STDDEF_H
#define NULL ((void*)0)
typedef unsigned long size_t;
typedef long ptrdiff_t;
typedef int wchar_t;
#define offsetof(type, member) ((size_t)&(((type*)0)->member))
#endif
`,
	"stdbool.h": `#ifndef _STDBOOL_H
#define _STDBOOL_H
#define bool _Bool
#define true 1
#define false 0
#define __bool_true_false_are_defined 1
#endif
`,
	"stdio.h": `#ifndef _STDIO_H
#define _STDIO_H
#include "stddef.h"
typedef int FILE;
#define stdin  ((FILE*)1)
#define stdout ((FILE*)2)
#define stderr ((FILE*)3)
#define EOF (-1)
int printf(const char *format, ...);
int fprintf(FILE *stream, const char *format, ...);
int sprintf(char *s, const char *format, ...);
int snprintf(char *s, size_t n, const char *format, ...);
int puts(const char *s);
int putchar(int c);
int getchar(void);
#endif
`,
	"stdlib.h": `#ifndef _STDLIB_H
#define _STDLIB_H
#include "stddef.h"
#define EXIT_SUCCESS 0
#define EXIT_FAILURE 1
#define RAND_MAX 2147483647
void *malloc(size_t size);
void *calloc(size_t nmemb, size_t size);
void *realloc(void *ptr, size_t size);
void free(void *ptr);
void exit(int status);
void abort(void);
int atoi(const char *nptr);
long atol(const char *nptr);
int abs(int j);
long labs(long j);
int rand(void);
void srand(unsigned int seed);
#endif
`,
	"string.h": `#ifndef _STRING_H
#define _STRING_H
#include "stddef.h"
void *memcpy(void *s1, const void *s2, size_t n);
void *memmove(void *s1, const void *s2, size_t n);
void *memset(void *s, int c, size_t n);
int memcmp(const void *s1, const void *s2, size_t n);
void *memchr(const void *s, int c, size_t n);
size_t strlen(const char *s);
char *strcpy(char *s1, const char *s2);
char *strncpy(char *s1, const char *s2, size_t n);
char *strcat(char *s1, const char *s2);
char *strncat(char *s1, const char *s2, size_t n);
int strcmp(const char *s1, const char *s2);
int strncmp(const char *s1, const char *s2, size_t n);
char *strchr(const char *s, int c);
char *strrchr(const char *s, int c);
char *strstr(const char *s1, const char *s2);
#endif
`,
	"ctype.h": `#ifndef _CTYPE_H
#define _CTYPE_H
int isdigit(int c);
int isalpha(int c);
int isspace(int c);
int isupper(int c);
int islower(int c);
int toupper(int c);
int tolower(int c);
#endif
`,
	"assert.h": `#ifndef _ASSERT_H
#define _ASSERT_H
void __assert_fail(const char *expr, const char *file, int line);
#ifdef NDEBUG
#define assert(e) ((void)0)
#else
#define assert(e) ((e) ? (void)0 : __assert_fail(#e, __FILE__, __LINE__))
#endif
#endif
`,
	"limits.h": `#ifndef _LIMITS_H
#define _LIMITS_H
#define CHAR_BIT 8
#define SCHAR_MIN (-128)
#define SCHAR_MAX 127
#define UCHAR_MAX 255
#define CHAR_MIN SCHAR_MIN
#define CHAR_MAX SCHAR_MAX
#define SHRT_MIN (-__SHRT_MAX__-1)
#define SHRT_MAX __SHRT_MAX__
#define USHRT_MAX __USHRT_MAX__
#define INT_MIN (-__INT_MAX__-1)
#define INT_MAX __INT_MAX__
#define UINT_MAX __UINT_MAX__
#define LONG_MIN (-__LONG_MAX__-1)
#define LONG_MAX __LONG_MAX__
#define ULONG_MAX __ULONG_MAX__
#define LLONG_MIN (-__LONG_LONG_MAX__-1)
#define LLONG_MAX __LONG_LONG_MAX__
#define ULLONG_MAX __ULONG_LONG_MAX__
#endif
`,
	"stdint.h": `#ifndef _STDINT_H
#define _STDINT_H
__KCC_IF_INT8__(typedef __INT8_TYPE__ int8_t;)
__KCC_IF_INT8__(typedef __UINT8_TYPE__ uint8_t;)
__KCC_IF_INT16__(typedef __INT16_TYPE__ int16_t;)
__KCC_IF_INT16__(typedef __UINT16_TYPE__ uint16_t;)
__KCC_IF_INT32__(typedef __INT32_TYPE__ int32_t;)
__KCC_IF_INT32__(typedef __UINT32_TYPE__ uint32_t;)
__KCC_IF_INT64__(typedef __INT64_TYPE__ int64_t;)
__KCC_IF_INT64__(typedef __UINT64_TYPE__ uint64_t;)
typedef __INTPTR_TYPE__ intptr_t;
typedef __UINTPTR_TYPE__ uintptr_t;
#ifdef __INT8_TYPE__
#define INT8_MAX __INT8_MAX__
#define INT8_MIN (-128)
#define UINT8_MAX __UINT8_MAX__
#endif
#ifdef __INT16_TYPE__
#define INT16_MAX __INT16_MAX__
#define INT16_MIN (-32768)
#define UINT16_MAX __UINT16_MAX__
#endif
#ifdef __INT32_TYPE__
#define INT32_MAX __INT32_MAX__
#define INT32_MIN (-__INT32_MAX__-1)
#define UINT32_MAX __UINT32_MAX__
#endif
#ifdef __INT64_TYPE__
#define INT64_MAX __INT64_MAX__
#define INT64_MIN (-__INT64_MAX__-1)
#define UINT64_MAX __UINT64_MAX__
#endif
#endif
`,
	"float.h": `#ifndef _FLOAT_H
#define _FLOAT_H
#define FLT_MAX 3.402823466e+38f
#define FLT_MIN 1.175494351e-38f
#define DBL_MAX 1.7976931348623158e+308
#define DBL_MIN 2.2250738585072014e-308
#define FLT_EPSILON 1.192092896e-07f
#define DBL_EPSILON 2.2204460492503131e-16
#endif
`,
}
