#include <stdio.h>
int main(void) {
	int s = 0;
	switch (1) {
	case 0:
		for (int i = 0; i < 3; i++) {
	case 1:
			if (s == 0)
				i = 0;
			s++;
		}
	}
	printf("%d\n", s);
	return 0;
}
